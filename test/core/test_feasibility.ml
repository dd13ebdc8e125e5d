open Pj_core

(* Problems with forced shared locations: every term draws its matches
   from a pool of at most n + 1 locations, so terms collide often and a
   good share of the problems has no valid matchset at all. *)
let shared_problem_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 (n + 1) >>= fun pool ->
    map Array.of_list
      (list_repeat n (Gen.list_gen ~max_len:3 ~max_loc:(pool - 1))))

let shared_problem_arb = QCheck.make ~print:Gen.pp_problem shared_problem_gen

let families =
  [
    Scoring.Win (Scoring.win_exponential ~alpha:0.2);
    Scoring.Med (Scoring.med_exponential ~alpha:0.2);
    Scoring.Max (Scoring.max_sum ~alpha:0.2);
  ]

let fast_solver = function
  | Scoring.Win w -> Win.best w
  | Scoring.Med d -> Med.best d
  | Scoring.Max x -> Max_join.best x

let same_result a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Naive.result), Some (y : Naive.result) ->
      Int64.equal (Int64.bits_of_float x.score) (Int64.bits_of_float y.score)
      && Matchset.equal x.matchset y.matchset
  | Some _, None | None, Some _ -> false

let feasible_iff_valid_exists =
  Gen.qtest ~count:1000 ~name:"feasibility = some valid matchset exists"
    shared_problem_arb (fun p ->
      List.for_all
        (fun scoring ->
          Feasibility.problem p = (Naive.best_valid scoring p <> None))
        families)

let solve_dedup_equals_wrapper =
  Gen.qtest ~count:1000
    ~name:"solve ~dedup = Dedup.best_valid fast, bit for bit"
    shared_problem_arb (fun p ->
      List.for_all
        (fun scoring ->
          same_result
            (Best_join.solve ~dedup:true scoring p)
            (fst (Dedup.best_valid (fast_solver scoring) p)))
        families)

let fast_equals_naive =
  Gen.qtest ~count:1000 ~name:"fast solvers = naive on shared locations"
    shared_problem_arb (fun p ->
      List.for_all
        (fun scoring ->
          Gen.agree_with_oracle scoring (fast_solver scoring p)
            (Naive.best scoring p)
          && Gen.agree_with_oracle scoring
               (Best_join.solve ~dedup:true scoring p)
               (Naive.best_valid scoring p))
        families)

(* Capacities: term j may use resources adj.(j); resource r serves at
   most cap.(r) terms. Compared against brute force over all
   assignments. *)
let brute_assignable ~adj ~cap ~terms =
  let used = Array.make (Array.length cap) 0 in
  let rec go j =
    j = terms
    || Array.exists
         (fun r ->
           used.(r) < cap.(r)
           && begin
                used.(r) <- used.(r) + 1;
                let ok = go (j + 1) in
                used.(r) <- used.(r) - 1;
                ok
              end)
         adj.(j)
  in
  go 0

let capacity_gen =
  QCheck.Gen.(
    int_range 0 5 >>= fun terms ->
    int_range 1 4 >>= fun resources ->
    pair
      (list_repeat terms (list_size (int_range 0 3) (int_range 0 (resources - 1))))
      (list_repeat resources (int_range 0 3)))

let assignable_matches_brute_force =
  Gen.qtest ~count:1000 ~name:"assignable = brute-force assignment"
    (QCheck.make
       ~print:(fun (adj, cap) ->
         Printf.sprintf "adj=%s cap=%s"
           (String.concat ";"
              (List.map
                 (fun l -> String.concat "," (List.map string_of_int l))
                 adj))
           (String.concat "," (List.map string_of_int cap)))
       capacity_gen)
    (fun (adj, cap) ->
      let adj = Array.of_list (List.map Array.of_list adj)
      and cap = Array.of_list cap in
      let terms = Array.length adj in
      let w = Feasibility.create () in
      (* Twice through one workspace: reuse must not leak state. *)
      let run () =
        Feasibility.assignable w ~adj ~deg:(Array.map Array.length adj) ~cap
          ~resources:(Array.length cap) ~terms
      in
      let expected = brute_assignable ~adj ~cap ~terms in
      run () = expected && run () = expected)

let test_examples () =
  let m loc = Match0.make ~loc ~score:0.5 () in
  let check name expected p =
    Alcotest.(check bool) name expected (Feasibility.problem p)
  in
  check "no terms" true [||];
  check "empty list" false [| [| m 1 |]; [||] |];
  check "one shared location" false [| [| m 3 |]; [| m 3 |] |];
  check "shared plus a spare" true [| [| m 3 |]; [| m 3; m 5 |] |];
  check "three terms on two locations" false
    [| [| m 1; m 2 |]; [| m 1; m 2 |]; [| m 1; m 2 |] |];
  check "a rich term rescues nothing it cannot reach" false
    [| [| m 1 |]; [| m 1 |]; [| m 2; m 3; m 4 |] |];
  check "co-located matches count once" false
    [| [| Match0.make ~loc:4 ~score:0.2 (); m 4 |]; [| m 4 |] |]

let suite =
  [
    ("feasibility: examples", `Quick, test_examples);
    feasible_iff_valid_exists;
    solve_dedup_equals_wrapper;
    fast_equals_naive;
    assignable_matches_brute_force;
  ]
