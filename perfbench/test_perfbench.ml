(* The benchmark's own helpers: the tail-percentile rule, self time
   under overlapping child spans, and seed determinism of the corpus
   and query generators. *)

open Perfbench

let tail_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expected
      (Summary.tail_percentile n)
  in
  check 100_000 (Some 99.99);
  check 99_999 (Some 99.9);
  check 1000 (Some 99.);
  check 999 (Some 90.);
  check 100 (Some 90.);
  check 99 (Some 50.);
  check 20 (Some 50.);
  check 19 None;
  check 0 None

let percentiles () =
  let xs = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50. (Summary.median xs);
  Alcotest.(check (float 1e-9)) "p99" 99. (Summary.percentile xs 99.);
  Alcotest.(check (float 1e-9)) "interpolated" 1.5
    (Summary.percentile [| 1.; 2. |] 50.);
  Alcotest.(check bool) "no samples" true (Float.is_nan (Summary.median [||]))

let span id ~parent start stop =
  { Spans.id; name = "s"; parent; request = 0; start; stop; words = 0. }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Spans.id = id) (Spans.self_times spans))

let self_time () =
  let spans =
    [
      span 0 ~parent:(-1) 0. 10.;
      (* overlapping children cover [1, 6] once *)
      span 1 ~parent:0 1. 4.;
      span 2 ~parent:0 3. 6.;
      (* a child running past its parent counts only inside it *)
      span 3 ~parent:0 8. 12.;
      (* a grandchild belongs to its own parent, not the root *)
      span 4 ~parent:1 1.5 2.;
    ]
  in
  Alcotest.(check (float 1e-9)) "root" 3. (self_of spans 0);
  Alcotest.(check (float 1e-9)) "child" 2.5 (self_of spans 1);
  Alcotest.(check (float 1e-9)) "leaf" 3. (self_of spans 2);
  Alcotest.(check (float 1e-9)) "nested child" 0.5 (self_of spans 4)

let recorder () =
  let t = Spans.create () in
  let root = Spans.reserve t in
  let _, child =
    Spans.with_span t ~name:"child" ~parent:root ~request:7 (fun () -> ())
  in
  Spans.fill t root ~name:"root" ~parent:(-1) ~request:7 ~start:0.
    ~stop:(Spans.now ()) ~words:0.;
  let agg = Spans.by_name (Spans.spans t) in
  Alcotest.(check int) "ids" 1 child;
  Alcotest.(check int) "root count" 1 (Spans.find agg "root").Spans.count;
  Alcotest.(check int) "child count" 1 (Spans.find agg "child").Spans.count

let corpus_determinism () =
  let a = Gen.documents ~seed:7 200 and b = Gen.documents ~seed:7 200 in
  Alcotest.(check bool) "same seed, same corpus" true (a = b);
  Alcotest.(check bool) "other seed, other corpus" false
    (a = Gen.documents ~seed:8 200);
  Array.iter
    (fun ws ->
      let n = Array.length ws in
      Alcotest.(check bool) "length" true (n >= Gen.min_len && n <= Gen.max_len))
    a

let query_determinism () =
  let docs = Gen.documents ~seed:11 2000 in
  let pools = Gen.pools ~n_docs:2000 ~df:(Gen.df_scan docs) in
  let draw seed =
    Gen.queries ~seed pools ~ks:[| 10; 100 |]
      ~classes:Gen.[| Rare; Mixed; Common |]
      30
  in
  let a = draw 5 in
  Alcotest.(check bool) "same seed, same queries" true (a = draw 5);
  Alcotest.(check bool) "other seed, other queries" false (a = draw 6);
  Alcotest.(check int) "exact class shares" 10
    (Array.length (Array.of_list (List.filter (fun q -> q.Gen.cls = Gen.Common) (Array.to_list a))))

let fillers_are_stems () =
  Array.iter
    (fun w -> Alcotest.(check string) "stem" w (Pj_text.Porter.stem w))
    Gen.fillers

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "percentiles" `Quick percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "recorder" `Quick recorder;
        ] );
      ( "gen",
        [
          Alcotest.test_case "corpus determinism" `Quick corpus_determinism;
          Alcotest.test_case "query determinism" `Quick query_determinism;
          Alcotest.test_case "fillers are stems" `Quick fillers_are_stems;
        ] );
    ]
