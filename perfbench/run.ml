(* What every workload shares: its arguments, its result, and the
   small helpers around the serving CLI's text formats. *)

type env = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (** scratch directory for this run, removed at exit *)
  spans : Spans.t;  (** traced runs' spans, written out at exit *)
}

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Summary.metric list;
  meta : (string * string) list;
      (** run metadata: sample counts, shares, offered rates *)
}

let now = Pj_util.Timing.monotonic_now

let metric name unit_ value = { Summary.name; unit_; value }

(* How many times a workload builds its whole set-up; [setup_s] is
   the median, so work moved into set-up shows without one slow
   build deciding the figure. *)
let setup_reps = 3

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Set up [setup_reps] times, keeping the last result and the median
   set-up time. [f ~last] returns its result and how long its set-up
   took; earlier results are torn down by [discard] before the next
   set-up starts. *)
let repeated_setup ~discard f =
  let rec go i times =
    let last = i + 1 = setup_reps in
    let r, t = f ~last in
    if last then (r, Summary.median (Array.of_list (t :: times)))
    else begin
      discard r;
      go (i + 1) (t :: times)
    end
  in
  go 0 []

let scoring family alpha =
  match Pj_server.Protocol.scoring_of ~family ~alpha with
  | Ok s -> s
  | Error m -> failwith m

(* The SEARCH response a correct server gives for [hits] on the binary
   wire (full float precision). *)
let expected_line hits =
  Pj_server.Protocol.string_of_hits
    ~precision:Pj_server.Protocol.exact_precision hits

let search_hits searcher (q : Gen.query) =
  Pj_engine.Searcher.search ~k:q.Gen.k searcher
    (scoring q.Gen.family q.Gen.alpha)
    (Gen.query_of_terms q.Gen.terms)

(* A field of a STATS line ("key=value" tokens). *)
let stat line key =
  let prefix = key ^ "=" in
  let n = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > n && String.sub tok 0 n = prefix then
        float_of_string_opt (String.sub tok n (String.length tok - n))
      else None)
    (String.split_on_char ' ' line)
  |> Option.value ~default:0.

(* Documents as the CLI reads them: blank-line-separated paragraphs. *)
let write_docs path docs =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun ws ->
          output_string oc (Gen.text ws);
          output_string oc "\n\n")
        docs)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let ms s = s *. 1000.

(* Latency summary of a class of samples (seconds in, ms out), with its
   sample count for the metadata. *)
let p50_ms xs = ms (Summary.median xs)
let p99_ms xs = ms (Summary.percentile xs 99.)

let tail_meta name xs =
  let n = Array.length xs in
  let tail =
    match Summary.tail_percentile n with
    | Some p -> Printf.sprintf "p%g=%.4fms" p (ms (Summary.percentile xs p))
    | None -> "none"
  in
  (name, Printf.sprintf "n=%d p50=%.4fms highest_tail=%s" n (p50_ms xs) tail)
