(** Exact feasibility of duplicate-free matchsets (Section VI).

    A valid matchset gives every query term its own document token.
    Whether one exists is a bipartite assignment question: terms on one
    side, resources (tokens or locations) on the other, resource [r]
    able to serve at most [cap r] terms. By Hall's theorem an assignment
    exists iff every set [S] of terms reaches at least [|S|] units of
    capacity in total. The test decides it with augmenting paths, in
    O(terms × edges), without enumerating the subsets.

    {!Dedup.best_valid} returns [None] exactly on the problems this
    test rejects, so callers use it to skip the duplicate-unaware
    solves and the branching that would end in [None]. *)

type t
(** A reusable workspace. It grows on demand and is then reused, so
    repeated tests allocate nothing in the steady state. Not safe for
    concurrent use from several domains. *)

val create : unit -> t

val assignable :
  t ->
  adj:int array array ->
  deg:int array ->
  cap:int array ->
  resources:int ->
  terms:int ->
  bool
(** [assignable w ~adj ~deg ~cap ~resources ~terms]: can every term
    [j < terms] be given one unit of a resource among
    [adj.(j).(0 .. deg.(j) - 1)], with resource [r < resources] serving
    at most [cap.(r)] terms? Resources of capacity 0 are unusable.
    [true] for [terms = 0]. *)

val problem : Match_list.problem -> bool
(** True iff the problem has a valid matchset: every list is non-empty
    and the terms can be given pairwise distinct locations (locations
    are the resources, each of capacity 1). A term with at least
    [n_terms] distinct locations always finds a free one, so only the
    terms with fewer take part in the matching. Uses a per-domain
    workspace. *)
