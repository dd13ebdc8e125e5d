(* In-memory spans for the traced run.

   A span is one call into a layer, timed from the benchmark's own
   code: name, start and end on the monotonic clock, the span that
   caused it, and the request it belongs to. Spans stay in memory
   while the run measures and are written out once at the end. Minor
   words allocated during the span ride along, since allocation per
   candidate is one of the per-layer metrics. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  request : int;
  start : float;
  stop : float;
  words : float;
}

type t = { mutable next : int; mutable spans : span list }

let create () = { next = 0; spans = [] }

let now = Pj_util.Timing.monotonic_now

let add t ~name ~parent ~request ~start ~stop ~words =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; name; parent; request; start; stop; words } :: t.spans;
  id

(* A parent's id can be taken before its children run and its
   interval filled in once they are done. *)
let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

let fill t id ~name ~parent ~request ~start ~stop ~words =
  t.spans <- { id; name; parent; request; start; stop; words } :: t.spans

(* Spans with ids from [first] on. *)
let since t first = List.filter (fun s -> s.id >= first) (List.rev t.spans)

(* Run [f] inside a span; returns its result and the span id. *)
let with_span t ~name ~parent ~request f =
  let w0 = Gc.minor_words () in
  let start = now () in
  let r = f () in
  let stop = now () in
  let words = Gc.minor_words () -. w0 in
  (r, add t ~name ~parent ~request ~start ~stop ~words)

let spans t = List.rev t.spans

(* The length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type agg = { count : int; total_s : float; self_s : float; words : float }

(* Per span name: count, total and self time, minor words. *)
let by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let a =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ count = 0; total_s = 0.; self_s = 0.; words = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          count = a.count + 1;
          total_s = a.total_s +. (s.stop -. s.start);
          self_s = a.self_s +. self;
          words = a.words +. s.words;
        })
    (self_times spans);
  tbl

let find tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ count = 0; total_s = 0.; self_s = 0.; words = 0. }

(* One tab-separated line per span, times in microseconds from the
   first span's start. *)
let write t path =
  let all = spans t in
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity all in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tparent\trequest\tstart_us\tend_us\tself_us\twords\n";
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.0f\n" s.id
            s.name s.parent s.request
            ((s.start -. origin) *. 1e6)
            ((s.stop -. origin) *. 1e6)
            (self *. 1e6) s.words)
        (self_times all))
