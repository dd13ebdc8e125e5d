(** Subsets of query terms represented as bitmasks.

    Algorithm 1 (WIN) keeps one best partial matchset per nonempty subset
    P of the query terms; subsets are integers below [1 lsl n] where bit
    [j] marks membership of term [j]. Supports up to 30 terms, far above
    the paper's |Q| <= 7. *)

type t = int

val empty : t
val full : int -> t
(** [full n] is the subset containing terms 0..n-1. *)

val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool

val iter_elements : t -> (int -> unit) -> unit
(** Visit member indices in increasing order. *)

val elements : t -> int list

val iter_nonempty : int -> (t -> unit) -> unit
(** [iter_nonempty n f] applies [f] to every nonempty subset of [full n],
    in increasing bitmask order. *)

val by_decreasing_size : int -> t array
(** Every nonempty subset of [full n] in order of decreasing
    cardinality, increasing bitmask order within one cardinality — the
    order of {!iter_by_decreasing_size}, computed once so a caller
    visiting it for every match pays the O(n 2^n) ordering only once. *)

val iter_by_decreasing_size : int -> (t -> unit) -> unit
(** Visit every nonempty subset of [full n] in order of decreasing
    cardinality (the processing order of Algorithm 1, which must update a
    set before the subsets it is derived from). *)
