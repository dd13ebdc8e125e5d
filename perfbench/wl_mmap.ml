(* search-mmap: in-process, one client, closed loop, over a PJX4 file
   served through Mapped_index.

   Set-up generates the corpus, builds the heap index, compacts it to
   PJX4 and maps it. The heap index checks every query of the mix
   against the mapped one, then is dropped before timing. The mix has
   equal shares of three selectivity classes: rare (every term under
   0.5% of documents), mixed (rare and common terms) and common (every
   term over 10%). Rare queries expose the fixed cost per query (cursor
   opens, codec), common ones the cost per candidate (alignment, match
   lists, joins). *)

open Run
module Searcher = Pj_engine.Searcher

let n_docs = 20_000
let n_queries = 1200
let ks = [| 10; 100 |]
let classes = Gen.[| Rare; Mixed; Common |]

let df searcher spec =
  Array.length (Searcher.candidates searcher (Gen.query_of_terms [ spec ]))

let hit_pairs hits =
  List.map (fun h -> (h.Searcher.doc_id, h.Searcher.score)) hits

(* What the indexing process hands back to the serving one. *)
type built = {
  setup_s : float;  (** corpus, heap index and PJX4 write *)
  build_s : float;  (** the heap index alone *)
  text_bytes : int;
  queries : Gen.query array;
  expected : (int * float) list array;  (** heap-index answers *)
  pools : int * int;  (** rare and common term pool sizes *)
  split : Gen.query array;  (** the engine probe's flat/graded queries *)
  index_layers : Summary.metric list;  (** traced: heap cursor probes *)
}

(* The indexing process: generate the corpus, build the heap index,
   write the PJX4 file. With [answers], also draw the query mix and
   answer it on the heap index (the reference side of the correctness
   gate), and in a traced run probe the heap index's cursors. *)
let build_child ~seed ~path ~out ~answers ~trace =
  let t0 = now () in
  let docs = Gen.documents ~seed n_docs in
  let corpus = Gen.stemmed_corpus docs in
  let idx, build_s = timed (fun () -> Pj_index.Inverted_index.build corpus) in
  Pj_ondisk.Writer.write idx path;
  let setup_s = now () -. t0 in
  let heap = Searcher.create idx in
  let queries, expected, pools, split, index_layers =
    if not answers then ([||], [||], (0, 0), [||], [])
    else begin
      let pools = Gen.pools ~n_docs ~df:(df heap) in
      let queries = Gen.queries ~seed:(seed + 1) pools ~ks ~classes n_queries in
      ( queries,
        Array.map (fun q -> hit_pairs (search_hits heap q)) queries,
        (Array.length pools.Gen.rare, Array.length pools.Gen.common),
        Gen.flat_and_graded ~seed:(seed + 6) pools 10,
        if trace then
          metric "index.build_s" "s" build_s
          :: Layers.cursors ~layer:"index" ~walk_name:"walk_ns_per_posting" idx
               (Layers.forms queries)
        else [] )
    end
  in
  let b =
    {
      setup_s;
      build_s;
      text_bytes = Gen.text_bytes docs;
      queries;
      expected;
      pools;
      split;
      index_layers;
    }
  in
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc b [])

(* Run the indexing process to completion and read what it built. *)
let build env ~path ~answers =
  let out = Filename.concat env.dir "built.bin" in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [|
        exe; "--build-mmap"; string_of_int env.seed; path; out;
        string_of_bool answers; string_of_bool env.trace;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: the indexing process failed");
  let b : built = In_channel.with_open_bin out Marshal.from_channel in
  Sys.remove out;
  let mapped, open_s = timed (fun () -> Pj_ondisk.Mapped_index.open_file path) in
  (b, mapped, b.setup_s +. open_s)

type sample = { query : int; lat : float }

(* Queries per second of the whole mix, from each query's median
   latency over its runs: a second of machine noise moves one run of a
   query, not the figure. *)
let qps samples nq =
  let per_query = Array.make nq [] in
  Array.iter (fun s -> per_query.(s.query) <- s.lat :: per_query.(s.query)) samples;
  let ran = List.filter (( <> ) []) (Array.to_list per_query) in
  float_of_int (List.length ran)
  /. List.fold_left (fun acc l -> acc +. Summary.median (Array.of_list l)) 0. ran

let run env =
  let path = Filename.concat env.dir "index.pjx4" in
  (* Only the last set-up also draws and answers the query mix. *)
  let (b, mapped_file), setup_s =
    repeated_setup ~discard:ignore (fun ~last ->
        let b, mapped, t = build env ~path ~answers:last in
        ((b, mapped), t))
  in
  let queries = b.queries and expected = b.expected in
  let spans = env.spans in
  let mapped = Searcher.create (Pj_ondisk.Mapped_index.index mapped_file) in
  (* The correctness gate: the mapped index must answer the whole mix as
     the heap index did. This pass also warms the page cache. *)
  let gate_failures = ref 0 in
  Array.iteri
    (fun i q ->
      if hit_pairs (search_hits mapped q) <> expected.(i) then incr gate_failures)
    queries;
  let layers_pre =
    if not env.trace then []
    else begin
      let open_s =
        Array.init 5 (fun _ ->
            snd (timed (fun () -> ignore (Pj_ondisk.Mapped_index.open_file path))))
      in
      (metric "ondisk.open_ms" "ms" (ms (Summary.median open_s)) :: b.index_layers)
      @ Layers.cursors ~layer:"ondisk" ~walk_name:"decode_ns_per_posting"
          (Pj_ondisk.Mapped_index.index mapped_file) (Layers.forms queries)
      @ Layers.engine spans mapped
          (Array.append (Array.sub queries 0 60) b.split)
    end
  in
  let rss = ref (Proc.self_rss_mb ()) in
  let samples = ref [] and mismatches = ref 0 and gaps = ref [] in
  let traced_s = ref 0. and untraced_s = ref 0. in
  let nq = Array.length queries in
  (* One query, checked against the gate's answer; returns its latency.
     Traced, the same search also records its spans. *)
  let one ~traced i =
    let q = queries.(i) in
    let query = Gen.query_of_terms q.Gen.terms in
    let sc = scoring q.Gen.family q.Gen.alpha in
    let t0 = now () in
    let search () = Searcher.search ~k:q.Gen.k mapped sc query in
    let hits =
      if not traced then search ()
      else begin
        let root = Spans.reserve spans in
        let hits, _ =
          Spans.with_span spans ~name:"engine.search" ~parent:root ~request:i search
        in
        Spans.fill spans root ~name:"query" ~parent:(-1) ~request:i ~start:t0
          ~stop:(Spans.now ()) ~words:0.;
        hits
      end
    in
    let lat = now () -. t0 in
    if hit_pairs hits <> expected.(i) then incr mismatches;
    lat
  in
  let stop_at = now () +. env.seconds in
  let i = ref 0 and last_end = ref nan in
  while now () < stop_at do
    let start = now () in
    if not (Float.is_nan !last_end) then gaps := (start -. !last_end) :: !gaps;
    if env.trace then begin
      (* A chunk of the mix untraced, then the same chunk traced (order
         alternating), so the overhead compares like with like. *)
      let chunk = List.init 10 (fun j -> (!i + j) mod nq) in
      let untraced_first = !i / 10 mod 2 = 0 in
      let pass traced =
        List.iter
          (fun j ->
            let lat = one ~traced j in
            if traced then traced_s := !traced_s +. lat
            else begin
              untraced_s := !untraced_s +. lat;
              samples := { query = j; lat } :: !samples
            end)
          chunk
      in
      pass (not untraced_first);
      pass untraced_first;
      i := !i + 10
    end
    else begin
      let j = !i mod nq in
      samples := { query = j; lat = one ~traced:false j } :: !samples;
      incr i
    end;
    if !i mod 50 = 0 then rss := Float.max !rss (Proc.self_rss_mb ());
    last_end := now ()
  done;
  let samples = Array.of_list !samples in
  let lats p = Array.of_list (List.filter_map (fun s -> if p s then Some s.lat else None) (Array.to_list samples)) in
  let all = lats (fun _ -> true) in
  let of_cls c = lats (fun s -> queries.(s.query).Gen.cls = c) in
  let rare = of_cls Gen.Rare and common = of_cls Gen.Common in
  let n = Array.length all in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "qps" "1/s" (qps samples nq);
      metric "p50_ms" "ms" (p50_ms all);
      metric "p99_ms" "ms" (p99_ms all);
      metric "rare_p50_ms" "ms" (p50_ms rare);
      metric "common_p50_ms" "ms" (p50_ms common);
      metric "rss_mb" "MiB" !rss;
      metric "space_amp" "ratio"
        (float_of_int (Unix.stat path).Unix.st_size /. float_of_int b.text_bytes);
    ]
  in
  let layers =
    if not env.trace then []
    else begin
      let lines = Array.map Gen.line queries in
      let hit_lists = Array.map (search_hits mapped) (Array.sub queries 0 60) in
      let rig =
        Rig.one_leg env [ "--index"; path ] ~fresh:(Array.sub lines 1 20)
          ~cached_line:lines.(0)
      in
      layers_pre @ Layers.wire lines hit_lists @ rig @ Layers.live_metrics env
      @ [
          metric "server.cache_hit_ratio" "ratio" 0.;
          metric "server.queue_len_p99" "count" 0.;
          metric "server.busy" "count" 0.;
          metric "server.timeouts" "count" 0.;
          metric "cluster.retries" "count" 0.;
          metric "cluster.failovers" "count" 0.;
          metric "gen.late_p99_ms" "ms" (p99_ms (Array.of_list !gaps));
          metric "gen.tracing_overhead" "ratio" ((!traced_s /. !untraced_s) -. 1.);
        ]
    end
  in
  let failed = !gate_failures + !mismatches in
  {
    correct = failed = 0;
    attempted = n + nq;
    failed;
    metrics = (if env.trace then layers else e2e);
    meta =
      [
        ("docs", string_of_int n_docs);
        ("queries_in_mix", string_of_int nq);
        ("rare_pool", string_of_int (fst b.pools));
        ("common_pool", string_of_int (snd b.pools));
        ("class_share", "rare=1/3 mixed=1/3 common=1/3");
        ("cache_hit_share", "0 (no cache in this workload)");
        ("loop", "closed, one client");
        tail_meta "all" all;
        tail_meta "rare" rare;
        tail_meta "mixed" (of_cls Gen.Mixed);
        tail_meta "common" common;
      ];
  }
