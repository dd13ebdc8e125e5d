open Pj_core

(* The envelope is checked against the brute-force pointwise maximum for
   both contribution shapes used in the paper: the MED tent (slope 1)
   and the MAX exponential-decay contributions of Eq. (4) and Eq. (5). *)

let med_contribution : Envelope.contribution =
 fun m l -> m.Match0.score -. float_of_int (abs (m.Match0.loc - l))

let max_sum_contribution : Envelope.contribution =
 fun m l -> m.Match0.score *. exp (-0.1 *. float_of_int (abs (m.Match0.loc - l)))

let max_prod_contribution : Envelope.contribution =
 fun m l -> log m.Match0.score -. (0.1 *. float_of_int (abs (m.Match0.loc - l)))

let contributions =
  [
    ("MED tent", med_contribution);
    ("MAX sum", max_sum_contribution);
    ("MAX product", max_prod_contribution);
  ]

let envelope_matches_pointwise (name, c) =
  Gen.qtest ~count:500
    ~name:(Printf.sprintf "envelope cursor = pointwise max [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:8 ~max_loc:20))
    (fun lst ->
      let doms = Envelope.dominating_list c lst in
      let cur = Envelope.cursor c doms in
      let ok = ref true in
      for l = 0 to 20 do
        if not (Envelope.query cur l) then ok := false
        else if
          not (Gen.float_close (Envelope.value cur) (Envelope.pointwise_max c lst l))
        then ok := false
      done;
      !ok)

let dominating_list_is_subsequence (name, c) =
  Gen.qtest ~count:300
    ~name:(Printf.sprintf "dominating list is a location-sorted subset [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:8 ~max_loc:20))
    (fun lst ->
      let doms = Envelope.dominating_list c lst in
      let sorted = ref true in
      for i = 1 to Array.length doms - 1 do
        if doms.(i - 1).Match0.loc > doms.(i).Match0.loc then sorted := false
      done;
      let member m = Array.exists (fun x -> Match0.equal x m) lst in
      !sorted && Array.for_all member doms)

let interval_pairs_cover (name, c) =
  Gen.qtest ~count:200
    ~name:(Printf.sprintf "interval pairs attain the envelope [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:6 ~max_loc:15))
    (fun lst ->
      let pairs = Envelope.interval_pairs c lst ~lo:0 ~hi:15 in
      (* Segments tile [0, 15] in order and each segment's match attains
         the pointwise maximum throughout the segment. *)
      let expected_start = ref 0 in
      List.for_all
        (fun (a, b, m) ->
          let tiles = a = !expected_start && b >= a in
          expected_start := b + 1;
          let attains = ref true in
          for l = a to b do
            if not (Gen.float_close (c m l) (Envelope.pointwise_max c lst l))
            then attains := false
          done;
          tiles && !attains)
        pairs
      && !expected_start = 16)

let test_empty_list () =
  let doms = Envelope.dominating_list med_contribution [||] in
  Alcotest.(check int) "empty dominating list" 0 (Array.length doms);
  let cur = Envelope.cursor med_contribution doms in
  Alcotest.(check bool) "query on empty" false (Envelope.query cur 3)

let test_tie_prefers_successor () =
  (* Two identical-score matches equidistant from the query location:
     the later one must be chosen (footnote 3). *)
  let a = Match0.make ~loc:0 ~score:1. () in
  let b = Match0.make ~loc:10 ~score:1. () in
  let doms = Envelope.dominating_list med_contribution [| a; b |] in
  let cur = Envelope.cursor med_contribution doms in
  if Envelope.query cur 5 then begin
    Alcotest.(check int) "successor chosen" 10 (Envelope.chosen cur).Match0.loc;
    Alcotest.(check bool) "flagged as succeeding" true (Envelope.succeeds cur)
  end
  else Alcotest.fail "expected a pick"

let suite =
  [
    ("envelope: empty list", `Quick, test_empty_list);
    ("envelope: tie prefers successor", `Quick, test_tie_prefers_successor);
  ]
  @ List.map envelope_matches_pointwise contributions
  @ List.map dominating_list_is_subsequence contributions
  @ List.map interval_pairs_cover contributions
