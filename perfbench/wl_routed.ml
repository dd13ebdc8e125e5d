(* routed-read: open loop, read only, through `serve-router` over two
   `serve` backends that each hold one half of a static corpus.

   Queries follow Zipf(0.8) popularity over a pool of rare and mixed queries
   much larger than the router's front cache, so the run sees both
   cache hits and fan-outs, and no write ever invalidates the cache.
   The backends keep a one-entry cache, so every fan-out searches. Every
   response is checked byte for byte against an in-process Searcher
   over the whole corpus rendered by Protocol.string_of_hits.

   After the open loop at the nominal [rate], the same popularity mix
   runs closed loop through the router; its throughput is this
   workload's [qps], the tier's capacity, and [rate] over it is the
   utilization the open loop ran at. Then common-class queries go
   through the router one at a time and are checked too; their median
   round trip is [common_p50_ms] (the traffic itself has no common
   class). *)

open Run

let n_docs = 20_000
let pool_size = 4000
let front_cache = 128

(* The nominal open-loop rate. The closed loop below measures the
   tier's capacity on this mix at 5200-13400 req/s on a 2-vCPU VM (the
   host's speed drifted that much over an hour), so the open loop runs
   at 2-6% utilization: queues form only in bursts.
   Higher rates were tried (before the backends were pinned to CPUs)
   and made the tail unsteady on that VM: at 1000 req/s p99 ranged over
   4.0-7.9 ms in three seeds, against 3.3-4.4 ms at 300 req/s in five. *)
let rate = 300.

(* Zipf exponent of query popularity. With this pool and front cache
   about a quarter of the requests hit the cache: the median request
   fans out, and the hit share stays far from one half, where the
   median would flip between the cached and the routed path. *)
let popularity = 0.8

(* The closed loop: [capacity_depth] requests in flight on each
   connection, for as long as the open loop runs. Its throughput
   wanders by about 10% from one 4 s stretch to the next on a 2-vCPU
   VM, so a short closed loop would make a noisy [qps]. *)
let capacity_depth = 8

(* Completed requests per second of a closed loop: the median over
   half-second windows, leaving out the first, so that one stall moves
   one window and not the figure. *)
let throughput samples ~seconds =
  let w = 0.5 in
  let t0 = Array.fold_left (fun a s -> Float.min a s.Client.sent) infinity samples in
  let counts = Array.make (int_of_float (seconds /. w) - 1) 0. in
  Array.iter
    (fun s ->
      let k = int_of_float ((s.Client.answered -. t0) /. w) - 1 in
      if k >= 0 && k < Array.length counts then counts.(k) <- counts.(k) +. 1.)
    samples;
  Summary.median (Array.map (fun c -> c /. w) counts)

(* Common-class probes: more queries than the front cache holds, sent
   in the same order [common_reps] times, so that a request misses the
   router's LRU cache and the backends' one-entry caches. The generator
   can draw a query twice, or two orders of one term set, which the
   cache keys as one; those few requests hit, and the metadata counts
   them. Each query counts with the median of its round trips. *)
let n_common_probes = 300
let common_reps = 3

(* Bytes of the heap indexes the backends build over their halves,
   built here the same way. *)
let heap_bytes halves =
  Array.fold_left
    (fun acc docs ->
      let idx = Pj_index.Inverted_index.build (Gen.stemmed_corpus docs) in
      acc + (Obj.reachable_words (Obj.repr idx) * (Sys.word_size / 8)))
    0 halves

type setup = { backends : (Proc.t * int) list; router : Proc.t; port : int }

let start env ~halves =
  let docs = Gen.documents ~seed:env.seed n_docs in
  let half = n_docs / 2 in
  Run.write_docs halves.(0) (Array.sub docs 0 half);
  Run.write_docs halves.(1) (Array.sub docs half (n_docs - half));
  (* Each backend is pinned to a CPU of its own, so the two legs of a
     fan-out run side by side in every run; left to the scheduler, the
     placement changed from run to run, and the tail with it. *)
  let backends =
    Array.to_list
      (Array.mapi
         (fun i path ->
           Rig.serve env ~name:(Printf.sprintf "backend%d" i)
             ~cpu:(i mod Domain.recommended_domain_count ())
             [ path; "--port"; "0"; "--cache"; "1"; "--domains"; "1" ])
         halves)
  in
  let router, port =
    Rig.router env ~name:"router" ~cache:front_cache (List.map snd backends)
  in
  { backends; router; port }

let stop s =
  Proc.stop s.router;
  List.iter (fun (p, _) -> Proc.stop p) s.backends

let run env =
  Proc.keep_awake ();
  let halves = Array.init 2 (fun i -> Filename.concat env.dir (Printf.sprintf "half%d.txt" i)) in
  let s, setup_s =
    repeated_setup ~discard:stop (fun ~last:_ -> timed (fun () -> start env ~halves))
  in
  let docs = Gen.documents ~seed:env.seed n_docs in
  let pools = Gen.pools ~n_docs ~df:(Gen.df_scan docs) in
  let pool =
    Gen.queries ~seed:(env.seed + 1) pools ~ks:[| 10 |]
      ~classes:Gen.[| Rare; Mixed |]
      pool_size
  in
  let n = int_of_float (rate *. env.seconds) in
  let rng = Pj_util.Prng.create (env.seed + 4) in
  let popular = Pj_util.Dist.zipf ~n:pool_size ~s:popularity in
  let plan = Array.init n (fun _ -> Pj_util.Dist.sample popular rng) in
  let c = Client.connect s.port in
  let stats0 = Client.call c "STATS" in
  let tr =
    Traffic.run env ~port:s.port ~rate
      ~payload:(fun i -> Gen.line pool.(plan.(i)))
      ~on_response:(fun _ _ -> ())
  in
  let stats1 = Client.call c "STATS" in
  let closed_rng = Pj_util.Prng.create (env.seed + 8) in
  let closed_plan = Hashtbl.create 16384 in
  let closed =
    let conns = List.init (Traffic.connections ()) (fun _ -> Client.connect s.port) in
    let samples =
      Client.closed_loop conns ~depth:capacity_depth ~seconds:env.seconds
        ~payload:(fun i ->
          let q = Pj_util.Dist.sample popular closed_rng in
          Hashtbl.replace closed_plan i q;
          Gen.line pool.(q))
    in
    List.iter Client.close conns;
    samples
  in
  let capacity = throughput closed ~seconds:env.seconds in
  (* The oracle: one in-process index over the whole corpus. *)
  let idx, build_s =
    timed (fun () -> Pj_index.Inverted_index.build (Gen.stemmed_corpus docs))
  in
  let mono = Pj_engine.Searcher.create idx in
  let oracle = Hashtbl.create 1024 in
  let expect q =
    match Hashtbl.find_opt oracle q with
    | Some l -> l
    | None ->
        let l = expected_line (search_hits mono pool.(q)) in
        Hashtbl.add oracle q l;
        l
  in
  let mismatches = ref 0 and unanswered = ref 0 in
  Array.iter
    (fun smp ->
      if not (Client.is_answered smp) then incr unanswered
      else if smp.Client.response <> expect plan.(smp.Client.index) then incr mismatches)
    tr.Traffic.samples;
  Array.iter
    (fun smp ->
      if smp.Client.response <> expect (Hashtbl.find closed_plan smp.Client.index) then
        incr mismatches)
    closed;
  let commons =
    Gen.queries ~seed:(env.seed + 5) pools ~ks:[| 10 |] ~classes:Gen.[| Common |] n_common_probes
  in
  let common_lines = Array.map Gen.line commons in
  let common_expected = Array.map (fun q -> expected_line (search_hits mono q)) commons in
  let common_rtts = Array.make_matrix n_common_probes common_reps nan in
  let stats2 = Client.call c "STATS" in
  for r = 0 to common_reps - 1 do
    Array.iteri
      (fun j line ->
        let response, t = Client.timed_call c line in
        if response <> common_expected.(j) then incr mismatches;
        common_rtts.(j).(r) <- t)
      common_lines
  done;
  let stats3 = Client.call c "STATS" in
  Client.close c;
  let common_p50_ms = p50_ms (Array.map Summary.median common_rtts) in
  let common_hits = stat stats3 "cache_hits" -. stat stats2 "cache_hits" in
  let delta key = stat stats1 key -. stat stats0 key in
  let hit_ratio = Summary.ratio (delta "cache_hits") (delta "cache_hits" +. delta "cache_misses") in
  let searches = Traffic.latencies tr (fun _ -> true) in
  let rare = Traffic.latencies tr (fun smp -> pool.(plan.(smp.Client.index)).Gen.cls = Gen.Rare) in
  let late = Traffic.lateness tr in
  let late_p99_ms = p99_ms late in
  let rss =
    Proc.peak_rss_mb s.router
    +. List.fold_left (fun a (p, _) -> a +. Proc.peak_rss_mb p) 0. s.backends
  in
  let layers =
    if not env.trace then []
    else begin
      let sample =
        Array.concat
          [ Array.sub pool 0 40; Gen.flat_and_graded ~seed:(env.seed + 6) pools 10 ]
      in
      let rtts = Layers.server_rtts s.port ~cached_line:(Gen.line pool.(0)) in
      let cluster =
        Layers.cluster_rtts ~router:s.port ~backends:(List.map snd s.backends)
          (Array.map Gen.line
             (Gen.queries ~seed:(env.seed + 7) pools ~ks:[| 10 |]
                ~classes:Gen.[| Mixed; Common |] 20))
      in
      Layers.static_probes env ~idx ~build_s ~sample
        ~lines:(Array.map Gen.line pool)
      @ rtts @ cluster @ Layers.live_metrics env
      @ [
          metric "server.cache_hit_ratio" "ratio" hit_ratio;
          metric "server.queue_len_p99" "count" (Summary.percentile tr.Traffic.queue_lens 99.);
          metric "server.busy" "count" (delta "busy");
          metric "server.timeouts" "count" (delta "timeouts");
          metric "cluster.retries" "count" (delta "backend_retries");
          metric "cluster.failovers" "count" (delta "failovers");
          metric "gen.late_p99_ms" "ms" late_p99_ms;
          metric "gen.tracing_overhead" "ratio" (Traffic.tracing_overhead tr);
        ]
    end
  in
  stop s;
  let e2e =
    if env.trace then []
    else
      let half = n_docs / 2 in
      let held = heap_bytes [| Array.sub docs 0 half; Array.sub docs half (n_docs - half) |] in
      [
        metric "setup_s" "s" setup_s;
        metric "qps" "1/s" capacity;
        metric "p50_ms" "ms" (p50_ms searches);
        metric "p99_ms" "ms" (p99_ms searches);
        metric "rare_p50_ms" "ms" (p50_ms rare);
        metric "common_p50_ms" "ms" common_p50_ms;
        metric "rss_mb" "MiB" rss;
        metric "space_amp" "ratio" (float_of_int held /. float_of_int (Gen.text_bytes docs));
      ]
  in
  let behind = Traffic.behind tr in
  let failed = !mismatches + !unanswered in
  {
    correct = failed = 0 && not behind;
    attempted = n + Array.length closed + (n_common_probes * common_reps);
    failed;
    metrics = (if env.trace then layers else e2e);
    meta =
      [
        ("offered_rate", Printf.sprintf "%g req/s open loop" rate);
        ( "capacity",
          Printf.sprintf "%.0f req/s closed loop (%d requests, depth %d per connection)"
            capacity (Array.length closed) capacity_depth );
        ("utilization", Printf.sprintf "%.3f (offered rate / capacity)" (rate /. capacity));
        ( "common_probes",
          Printf.sprintf "%d queries x %d round trips, %g cache hits" n_common_probes
            common_reps common_hits );
        ("connections", string_of_int (Traffic.connections ()));
        ("topology", Printf.sprintf "router (cache %d) over 2 backends of %d docs" front_cache (n_docs / 2));
        ("class_share", Printf.sprintf "rare=%d mixed=%d of %d (pool of %d, Zipf)"
            (Array.length rare) (Array.length searches - Array.length rare) (Array.length searches) pool_size);
        ("cache_hit_share", Printf.sprintf "%.3f" hit_ratio);
        ("distinct_checked", string_of_int (Hashtbl.length oracle));
        tail_meta "search" searches;
        tail_meta "rare" rare;
        tail_meta "late" late;
      ];
  }
