(* Per-layer probes for the traced run. Each one times calls into a
   layer's public functions from here, over the workload's own corpus
   and queries; nothing inside the library is instrumented. *)

open Run
module Searcher = Pj_engine.Searcher
module Inverted_index = Pj_index.Inverted_index
module Posting_list = Pj_index.Posting_list

(* Every expansion form of the queries' terms, once each. *)
let forms queries =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun (q : Gen.query) ->
      Array.iter
        (fun (m : Pj_matching.Matcher.t) ->
          List.iter
            (fun (w, _) -> Hashtbl.replace seen w ())
            (Option.value m.Pj_matching.Matcher.expansions ~default:[]))
        (Gen.query_of_terms q.Gen.terms).Pj_matching.Query.matchers)
    queries;
  List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) seen [])

(* Open a cursor on every form and walk it to the end: [layer].cursor_open_us
   and the per-posting cost of the walk (decode, for the on-disk codec). *)
let cursors ~layer ~walk_name idx forms =
  let rounds = 3 in
  let opens = ref 0 and open_s = ref 0. and postings = ref 0 and walk_s = ref 0. in
  for _ = 1 to rounds do
    List.iter
      (fun w ->
        let t0 = now () in
        let c = Inverted_index.cursor_of_word idx w in
        let t1 = now () in
        let n = ref 0 in
        while Posting_list.current_doc c >= 0 do
          incr n;
          Posting_list.next c
        done;
        let t2 = now () in
        incr opens;
        open_s := !open_s +. (t1 -. t0);
        postings := !postings + !n;
        walk_s := !walk_s +. (t2 -. t1))
      forms
  done;
  [
    metric (layer ^ ".cursor_open_us") "us"
      (Summary.ratio (!open_s *. 1e6) (float_of_int !opens));
    metric (layer ^ "." ^ walk_name) "ns"
      (Summary.ratio (!walk_s *. 1e9) (float_of_int !postings));
  ]

let is_flat (q : Gen.query) = not (List.exists Gen.is_graded q.Gen.terms)

type kind_acc = {
  mutable queries : int;
  mutable candidates : int;
  mutable aligned : int;
  mutable cand_s : float;
}

(* The engine, match-list and join layers, one query at a time: the
   candidate set (Searcher.candidates), the real top-k search with its
   aligned candidates counted through [accept], then for every aligned
   candidate the match lists (Match_builder.from_index) and the join
   (Best_join.solve) the searcher computes for it. Engine counts are
   split between flat queries (only [exact:] terms) and graded ones. *)
let engine spans searcher queries =
  let idx = Searcher.index searcher in
  let flat = { queries = 0; candidates = 0; aligned = 0; cand_s = 0. } in
  let graded = { queries = 0; candidates = 0; aligned = 0; cand_s = 0. } in
  let hits = ref 0 and aligned_total = ref 0 and matches = ref 0 in
  let first_span = spans.Spans.next in
  Array.iteri
    (fun request (q : Gen.query) ->
      let query = Gen.query_of_terms q.Gen.terms in
      let sc = scoring q.Gen.family q.Gen.alpha in
      let acc = if is_flat q then flat else graded in
      let root_start = Spans.now () in
      let root = Spans.reserve spans in
      let t0 = now () in
      let cands, _ =
        Spans.with_span spans ~name:"engine.candidates" ~parent:root ~request
          (fun () -> Searcher.candidates searcher query)
      in
      acc.cand_s <- acc.cand_s +. (now () -. t0);
      let aligned = ref [] in
      let result, _ =
        Spans.with_span spans ~name:"engine.search_fragment" ~parent:root
          ~request (fun () ->
            Searcher.search_fragment
              ~accept:(fun d ->
                aligned := d :: !aligned;
                true)
              ~k:q.Gen.k searcher sc query)
      in
      (match result with Ok h -> hits := !hits + List.length h | Error _ -> ());
      List.iter
        (fun doc_id ->
          let problem, _ =
            Spans.with_span spans ~name:"matching.build" ~parent:root ~request
              (fun () -> Pj_matching.Match_builder.from_index idx ~doc_id query)
          in
          matches := !matches + Pj_core.Match_list.total_size problem;
          ignore
            (Spans.with_span spans ~name:"core.solve" ~parent:root ~request
               (fun () -> Pj_core.Best_join.solve ~dedup:true sc problem)))
        !aligned;
      Spans.fill spans root ~name:"probe.query" ~parent:(-1) ~request
        ~start:root_start ~stop:(Spans.now ()) ~words:0.;
      let n_aligned = List.length !aligned in
      aligned_total := !aligned_total + n_aligned;
      acc.queries <- acc.queries + 1;
      acc.candidates <- acc.candidates + Array.length cands;
      acc.aligned <- acc.aligned + n_aligned)
    queries;
  let agg = Spans.by_name (Spans.since spans first_span) in
  let per_candidate name f =
    let a = Spans.find agg name in
    Summary.ratio (f a) (float_of_int a.Spans.count)
  in
  let kind name k =
    let fq = float_of_int k.queries and fc = float_of_int k.candidates in
    [
      metric ("engine." ^ name ^ ".candidates") "count"
        (Summary.ratio fc fq);
      metric ("engine." ^ name ^ ".aligned") "count"
        (Summary.ratio (float_of_int k.aligned) fq);
      metric ("engine." ^ name ^ ".prune_ratio") "ratio"
        (Summary.ratio (float_of_int k.aligned) fc);
      metric ("engine." ^ name ^ ".align_ns_per_candidate") "ns"
        (Summary.ratio (k.cand_s *. 1e9) fc);
    ]
  in
  [
    metric "core.solve_us_per_candidate" "us"
      (per_candidate "core.solve" (fun a -> a.Spans.self_s *. 1e6));
    metric "core.solve_words_per_candidate" "words"
      (per_candidate "core.solve" (fun a -> a.Spans.words));
    metric "core.hit_yield" "ratio"
      (Summary.ratio (float_of_int !hits) (float_of_int !aligned_total));
    metric "matching.build_us_per_candidate" "us"
      (per_candidate "matching.build" (fun a -> a.Spans.self_s *. 1e6));
    metric "matching.build_words_per_candidate" "words"
      (per_candidate "matching.build" (fun a -> a.Spans.words));
    metric "matching.matches_per_candidate" "count"
      (Summary.ratio (float_of_int !matches)
         (float_of_int (Spans.find agg "matching.build").Spans.count));
  ]
  @ kind "flat" flat @ kind "graded" graded

(* Pure functions of the serving tier, over the workload's request
   lines and the responses they produce: request parsing, hit
   rendering, and the binary frame codec. *)
let wire lines hit_lists =
  let reps = 20 in
  let per_call n f =
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    (now () -. t0) /. float_of_int (reps * n)
  in
  let nl = Array.length lines and nh = Array.length hit_lists in
  let parse_s =
    per_call nl (fun () ->
        Array.iter (fun l -> ignore (Pj_server.Protocol.parse_request l)) lines)
  in
  let render_s =
    per_call nh (fun () ->
        Array.iter
          (fun h -> ignore (Pj_server.Protocol.string_of_hits h))
          hit_lists)
  in
  let frame_s =
    per_call nl (fun () ->
        Array.iteri
          (fun id payload ->
            let s =
              Pj_frame.Frame.to_string
                { Pj_frame.Frame.kind = Pj_frame.Frame.Request; id; payload }
            in
            ignore (Pj_frame.Frame.decode s ~pos:(ref 0)))
          lines)
  in
  [
    metric "server.parse_ns" "ns" (parse_s *. 1e9);
    metric "server.render_us" "us" (render_s *. 1e6);
    metric "cluster.frame_ns" "ns" (frame_s *. 1e9);
  ]

(* Round trips against a running server, one request at a time: PING,
   and a SEARCH answered from the result cache. *)
let server_rtts port ~cached_line =
  let c = Client.connect port in
  let rtts line n =
    Array.init n (fun _ -> snd (Client.timed_call c line))
  in
  ignore (Client.call c cached_line);
  let ping = rtts "PING" 200 and cached = rtts cached_line 200 in
  Client.close c;
  [
    metric "server.ping_rtt_us" "us" (Summary.median ping *. 1e6);
    metric "server.cached_rtt_us" "us" (Summary.median cached *. 1e6);
  ]

(* The router's cost over its legs: every fresh line is sent straight
   to each backend, then through the router. The backends keep a
   one-entry cache and every line is new to the router, so both sides
   search. The overhead is the routed round trip minus the slowest
   leg's. *)
let cluster_rtts ~router ~backends lines =
  let direct = List.map Client.connect backends in
  let legs =
    Array.map
      (fun line -> List.map (fun c -> snd (Client.timed_call c line)) direct)
      lines
  in
  let r = Client.connect router in
  let routed = Array.map (fun line -> snd (Client.timed_call r line)) lines in
  List.iter Client.close (r :: direct);
  let all_legs = Array.concat (Array.to_list (Array.map Array.of_list legs)) in
  let overhead =
    Array.mapi
      (fun i t -> t -. List.fold_left Float.max 0. legs.(i))
      routed
  in
  [
    metric "cluster.leg_rtt_ms" "ms" (ms (Summary.median all_legs));
    metric "cluster.fanout_overhead_ms" "ms" (ms (Summary.median overhead));
  ]

(* The index, on-disk, engine and wire probes over a heap index of the
   workload's corpus: the heap index itself, and the same index written
   to a scratch PJX4 file and mapped. *)
let static_probes env ~idx ~build_s ~sample ~lines =
  let path = Filename.concat env.dir "probe.pjx4" in
  Pj_ondisk.Writer.write idx path;
  let open_s =
    Array.init 5 (fun _ ->
        snd (timed (fun () -> ignore (Pj_ondisk.Mapped_index.open_file path))))
  in
  let mapped = Pj_ondisk.Mapped_index.index (Pj_ondisk.Mapped_index.open_file path) in
  let forms = forms sample in
  let searcher = Searcher.create idx in
  [
    metric "index.build_s" "s" build_s;
    metric "ondisk.open_ms" "ms" (ms (Summary.median open_s));
  ]
  @ cursors ~layer:"index" ~walk_name:"walk_ns_per_posting" idx forms
  @ cursors ~layer:"ondisk" ~walk_name:"decode_ns_per_posting" mapped forms
  @ engine env.spans searcher sample
  @ wire lines (Array.map (search_hits searcher) sample)

(* The live layer, which no workload's traffic writes to: an in-process
   live index over a scratch directory with a per-batch fsynced WAL.
   [n_live_docs] fresh documents are added one at a time, each
   acknowledged after its fsync, then the memtable is flushed. *)
let n_live_docs = 1000

let live_metrics env =
  let dir = Filename.concat env.dir "live" in
  let docs =
    Array.map (Array.map Gen.stem) (Gen.documents ~seed:(env.seed + 2) n_live_docs)
  in
  let config =
    {
      Pj_live.Live_index.default_config with
      Pj_live.Live_index.wal = true;
      background_merge = false;
      fsync_policy = Pj_live.Wal.Per_batch;
    }
  in
  let idx = Pj_live.Live_index.open_dir ~config dir in
  let adds =
    Array.map (fun d -> snd (timed (fun () -> Pj_live.Live_index.add idx d))) docs
  in
  let flush = snd (timed (fun () -> Pj_live.Live_index.flush idx)) in
  let st = Pj_live.Live_index.stats idx in
  Pj_live.Live_index.close idx;
  rm_rf dir;
  [
    metric "live.write_p50_ms" "ms" (p50_ms adds);
    metric "live.write_p99_ms" "ms" (p99_ms adds);
    metric "live.wal_fsyncs_per_add" "ratio"
      (Summary.ratio (float_of_int st.Pj_live.Live_index.wal_fsyncs) (float_of_int n_live_docs));
    metric "live.flush_ms" "ms" (ms flush);
    metric "live.segments_end" "count" (float_of_int st.Pj_live.Live_index.segments);
    metric "live.merges" "count" (float_of_int st.Pj_live.Live_index.merges);
  ]
