(* Two query terms sharing an expansion form. A document holding the
   shared token once has no duplicate-free matchset and must give no
   hit; with the token twice, the hit must score exactly what the naive
   duplicate-free oracle gives. Checked on every posting source the
   searcher reads: the heap index, a live-memtable prefix view, a
   mapped PJX4 file, and range-restricted views of that file whose
   range cuts a posting of the shared token off. *)

open Pj_engine

let docs =
  [|
    [| "auto"; "x"; "x" |];  (* 0: shared token once: no hit *)
    [| "x"; "auto"; "x"; "x"; "auto" |];  (* 1: shared token twice *)
    [| "x"; "x" |];  (* 2: no query term *)
    [| "car"; "x"; "auto" |];  (* 3: distinct tokens *)
    [| "auto"; "vehicle"; "x" |];  (* 4: distinct tokens *)
    [| "auto"; "x"; "x"; "x" |];  (* 5: shared token once: no hit *)
  |]

let query =
  Pj_matching.Query.make "shared"
    [
      Pj_matching.Matcher.of_table ~name:"t1" [ ("car", 1.0); ("auto", 0.8) ];
      Pj_matching.Matcher.of_table ~name:"t2" [ ("auto", 0.9); ("vehicle", 0.7) ];
    ]

let scorings =
  [
    Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2);
    Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
    Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
  ]

let build_corpus () =
  let corpus = Pj_index.Corpus.create () in
  Array.iter (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d)) docs;
  corpus

(* The oracle: every document in [lo, hi) with a valid matchset, by the
   naive duplicate-free join over the heap index's match lists, in hit
   order (score descending, then doc id). *)
let expected heap scoring ~lo ~hi =
  let hits = ref [] in
  for doc_id = lo to hi - 1 do
    let p = Pj_matching.Match_builder.from_index heap ~doc_id query in
    match Pj_core.Naive.best_valid scoring p with
    | Some r -> hits := (doc_id, r.Pj_core.Naive.score) :: !hits
    | None -> ()
  done;
  List.sort
    (fun (da, sa) (db, sb) ->
      match compare sb sa with 0 -> compare da db | c -> c)
    !hits

let check_source name index scoring ~lo ~hi ~oracle =
  let got =
    List.map
      (fun (h : Searcher.hit) -> (h.Searcher.doc_id, h.Searcher.score))
      (Searcher.search ~k:10 (Searcher.create index) scoring query)
  in
  let want = expected oracle scoring ~lo ~hi in
  let pp l =
    String.concat ","
      (List.map (fun (d, s) -> Printf.sprintf "%d:%h" d s) l)
  in
  let label =
    Printf.sprintf "%s [%s]" name (Pj_core.Scoring.name scoring)
  in
  Alcotest.(check string) label (pp want) (pp got);
  Alcotest.(check bool) (label ^ ": no hit for the single shared token") true
    (not (List.mem_assoc 0 got || List.mem_assoc 5 got))

let test_all_sources () =
  let corpus = build_corpus () in
  let heap = Pj_index.Inverted_index.build corpus in
  let n = Array.length docs in
  (* The oracle really does distinguish one occurrence from two. *)
  Alcotest.(check bool) "oracle: doc 1 has a hit" true
    (List.mem_assoc 1
       (expected heap (List.hd scorings) ~lo:0 ~hi:n));
  let memtable =
    let b = Pj_index.Postings_builder.create () in
    for i = 0 to n - 1 do
      Pj_index.Postings_builder.add_doc b (Pj_index.Corpus.document corpus i)
    done;
    Pj_index.Postings_builder.index b corpus ~max_doc:(n - 1)
  in
  let path = Filename.temp_file "proxjoin_shared_form" ".pjx4" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pj_ondisk.Writer.write heap path;
      let mapped = Pj_ondisk.Mapped_index.open_file path in
      List.iter
        (fun scoring ->
          check_source "heap" heap scoring ~lo:0 ~hi:n ~oracle:heap;
          check_source "memtable" memtable scoring ~lo:0 ~hi:n ~oracle:heap;
          check_source "mapped" (Pj_ondisk.Mapped_index.index mapped) scoring
            ~lo:0 ~hi:n ~oracle:heap;
          (* [0, 1): the cursor over "auto" stops on doc 1's posting
             (tf 2), which the range masks. [1, 5) and [5, 6) cut the
             list on both sides. *)
          List.iter
            (fun (lo, hi) ->
              check_source
                (Printf.sprintf "mapped range [%d, %d)" lo hi)
                (Pj_ondisk.Mapped_index.shard_index mapped ~pos:lo
                   ~len:(hi - lo))
                scoring ~lo ~hi ~oracle:heap)
            [ (0, 1); (1, 5); (5, 6) ])
        scorings)

let suite =
  [ ("shared form: one occurrence never scores", `Quick, test_all_sources) ]
