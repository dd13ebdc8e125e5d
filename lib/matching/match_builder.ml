let scan vocab (doc : Pj_text.Document.t) (q : Query.t) =
  let n = Query.n_terms q in
  let lists = Array.init n (fun _ -> Pj_util.Vec.create ()) in
  (* Memoize per distinct token id: the per-term score vector. *)
  let cache : (int, float option array) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun pos tok ->
      let scores =
        match Hashtbl.find_opt cache tok with
        | Some s -> s
        | None ->
            let word = Pj_text.Vocab.word vocab tok in
            let s =
              Array.map (fun m -> m.Matcher.score_token word) q.Query.matchers
            in
            Hashtbl.add cache tok s;
            s
      in
      Array.iteri
        (fun j score ->
          match score with
          | None -> ()
          | Some score ->
              Pj_util.Vec.push lists.(j)
                (Pj_core.Match0.make ~payload:tok ~loc:pos ~score ()))
        scores)
    doc.Pj_text.Document.tokens;
  Array.map Pj_util.Vec.to_array lists

(* One term's list from per-form matches collected in arbitrary order:
   one sort by location (best score first within a location), then keep
   the first match per location, in place. Several forms can share a
   location only if two distinct lexicon forms intern to the same
   token, which the vocabulary forbids; the dedup is defensive. The
   result is sorted with distinct locations, so it is a valid list as
   it stands. *)
let of_form_matches arr =
  Array.sort
    (fun a b ->
      let c = compare a.Pj_core.Match0.loc b.Pj_core.Match0.loc in
      if c <> 0 then c
      else compare b.Pj_core.Match0.score a.Pj_core.Match0.score)
    arr;
  let n = ref 0 in
  Array.iter
    (fun m ->
      if !n = 0 || arr.(!n - 1).Pj_core.Match0.loc <> m.Pj_core.Match0.loc
      then begin
        arr.(!n) <- m;
        incr n
      end)
    arr;
  if !n = Array.length arr then arr else Array.sub arr 0 !n

let from_index idx ~doc_id (q : Query.t) =
  let vocab = Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus idx) in
  Array.map
    (fun m ->
      match m.Matcher.expansions with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Match_builder.from_index: matcher %s has no finite expansions"
               m.Matcher.name)
      | Some expansions ->
          let matches = Pj_util.Vec.create () in
          List.iter
            (fun (form, score) ->
              match Pj_text.Vocab.find vocab form with
              | None -> ()
              | Some tok ->
                  Array.iter
                    (fun pos ->
                      Pj_util.Vec.push matches
                        (Pj_core.Match0.make ~payload:tok ~loc:pos ~score ()))
                    (Pj_index.Inverted_index.positions_in idx ~token:tok
                       ~doc_id))
            expansions;
          of_form_matches (Pj_util.Vec.to_array matches))
    q.Query.matchers

let scan_corpus corpus q =
  let vocab = Pj_index.Corpus.vocab corpus in
  Array.init (Pj_index.Corpus.size corpus) (fun i ->
      let doc = Pj_index.Corpus.document corpus i in
      (doc, scan vocab doc q))
