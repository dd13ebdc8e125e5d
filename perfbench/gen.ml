(* The seeded corpus and query generator shared by every workload.

   Documents are Zipf(s = 1) filler over a fixed vocabulary of
   [filler_words] letter-only words, 40-120 tokens long. Lemmas of the
   mini WordNet graph are planted at graded per-lemma rates (a few
   common, most rare), and a minority of documents carry a short run
   of co-located lemmas from one graph neighbourhood, so proximity
   decides rank between documents that hold the same terms.

   Everything below depends only on the seed passed in: the lemma
   rates come from a fixed permutation (seed-independent, so the
   selectivity classes are the same for every seed), the documents
   and queries from the run's seed. *)

module Prng = Pj_util.Prng

let filler_words = 20_000
let min_len = 40
let max_len = 120
let run_share = 0.08

let consonants = "bdfgklmnprtvz"
let vowels = "aou"

(* Three consonant-vowel syllables: 39^3 > filler_words distinct words,
   none in the lexicon, and Porter leaves every one of them intact. *)
let filler_word r =
  let nc = String.length consonants and nv = String.length vowels in
  let syl = nc * nv in
  let b = Buffer.create 6 in
  let r = ref r in
  for _ = 1 to 3 do
    let s = !r mod syl in
    r := !r / syl;
    Buffer.add_char b consonants.[s / nv];
    Buffer.add_char b vowels.[s mod nv]
  done;
  Buffer.contents b

let fillers = Array.init filler_words filler_word

let filler_dist = Pj_util.Dist.zipf ~n:filler_words ~s:1.

(* --- the lemma lexicon and its planting rates -------------------------- *)

let graph = Pj_ontology.Mini_wordnet.create ()

(* Single-token lemmas only: the tokenizer keeps internal hyphens, but
   a lemma that Porter would fold onto another lemma would blur the
   per-lemma rates. *)
let lemmas =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun c ->
      List.iter
        (fun (w, _) ->
          if Pj_text.Tokenizer.tokenize w = [ w ] then Hashtbl.replace seen w ())
        (Pj_ontology.Graph.within graph ~radius:64 c))
    (Pj_ontology.Mini_wordnet.concepts ());
  let stems = Hashtbl.create 256 in
  let all = List.sort compare (Hashtbl.fold (fun w () acc -> w :: acc) seen []) in
  List.filter
    (fun w ->
      let s = Pj_text.Porter.stem w in
      if Hashtbl.mem stems s then false
      else begin
        Hashtbl.add stems s ();
        true
      end)
    all
  |> Array.of_list

let n_common_lemmas = 8

(* Rates by a fixed permutation: the first [n_common_lemmas] lemmas are
   planted in 12-30% of documents, the rest on a geometric ladder from
   0.4% down to 0.02%. *)
let lemma_rates =
  let order = Array.copy lemmas in
  Prng.shuffle (Prng.create 20090329) order;
  let n = Array.length order in
  let rare_n = n - n_common_lemmas in
  Array.mapi
    (fun i w ->
      if i < n_common_lemmas then
        (w, 0.12 +. (0.18 *. float_of_int i /. float_of_int (n_common_lemmas - 1)))
      else
        let j = i - n_common_lemmas in
        let t = float_of_int j /. float_of_int (max 1 (rare_n - 1)) in
        (w, 0.004 *. ((0.02 /. 0.4) ** t)))
    order

(* Lemmas within two edges of each lemma: the material of co-located
   runs, so a run matches some wordnet query's neighbourhood. *)
let neighbourhood =
  let tbl = Hashtbl.create 256 in
  let known = Hashtbl.create 256 in
  Array.iter (fun w -> Hashtbl.replace known w ()) lemmas;
  Array.iter
    (fun w ->
      let near =
        Pj_ontology.Graph.within graph ~radius:2 w
        |> List.filter_map (fun (x, _) ->
               if Hashtbl.mem known x then Some x else None)
        |> List.sort compare |> Array.of_list
      in
      Hashtbl.replace tbl w near)
    lemmas;
  fun w -> Hashtbl.find tbl w

(* --- documents ---------------------------------------------------------- *)

(* One document's words, before stemming. *)
let document rng =
  let len = Prng.int_in rng min_len max_len in
  let toks = Array.init len (fun _ -> fillers.(Pj_util.Dist.sample filler_dist rng)) in
  Array.iter
    (fun (w, rate) ->
      if Prng.float rng 1. < rate then toks.(Prng.int rng len) <- w)
    lemma_rates;
  if Prng.float rng 1. < run_share then begin
    let near = neighbourhood (Prng.choose rng lemmas) in
    let run = Prng.int_in rng 2 (min 4 (Array.length near)) in
    let pos = ref (Prng.int rng (len - 8)) in
    for _ = 1 to run do
      if !pos < len then toks.(!pos) <- Prng.choose rng near;
      pos := !pos + 1 + Prng.int rng 2
    done
  end;
  toks

(* [n] documents from [seed]. *)
let documents ~seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ -> document rng)

let text words = String.concat " " (Array.to_list words)

(* Bytes of input text: the words and one separator between each. *)
let text_bytes docs =
  Array.fold_left
    (fun acc ws ->
      Array.fold_left (fun a w -> a + String.length w + 1) acc ws - 1)
    0 docs

(* Porter stems, memoized: the vocabulary is small and fixed, so
   stemming a large corpus is a table lookup per token. What `proxjoin
   serve` indexes for a text is exactly [Array.map stem] of its words. *)
let stem =
  let memo = Hashtbl.create 32768 in
  fun w ->
    match Hashtbl.find_opt memo w with
    | Some s -> s
    | None ->
        let s = Pj_text.Porter.stem w in
        Hashtbl.add memo w s;
        s

let stemmed_corpus docs =
  let corpus = Pj_index.Corpus.create () in
  Array.iter
    (fun ws -> ignore (Pj_index.Corpus.add_tokens corpus (Array.map stem ws)))
    docs;
  corpus

(* --- query terms and their selectivity ---------------------------------- *)

(* The candidate term specs: every lemma both flat and graded. *)
let term_specs =
  Array.concat
    [
      Array.map (fun w -> "exact:" ^ w) lemmas;
      Array.map (fun w -> "wordnet:" ^ w) lemmas;
    ]

let is_graded spec = String.length spec > 8 && String.sub spec 0 8 = "wordnet:"

(* A parsed query with expansions stemmed, exactly as the server
   prepares it. *)
let query_of_terms terms =
  match Pj_matching.Query_parser.parse graph terms with
  | Error msg -> failwith ("perfbench: bad query: " ^ msg)
  | Ok q ->
      {
        q with
        Pj_matching.Query.matchers =
          Array.map Pj_matching.Matcher.stem_expansions
            q.Pj_matching.Query.matchers;
      }

type cls = Rare | Mixed | Common

(* Term pools by document frequency over [n_docs] documents: rare terms
   below 0.5% of the documents, common ones above 10%. [df spec] is the
   number of documents matching the term. *)
type pools = { rare : string array; common : string array }
(** Each pool in increasing document frequency. *)

let pools ~n_docs ~df =
  let share spec = float_of_int (df spec) /. float_of_int n_docs in
  let pick p =
    List.filter p (Array.to_list term_specs)
    |> List.stable_sort (fun a b -> compare (df a) (df b))
    |> Array.of_list
  in
  {
    rare = pick (fun s -> let x = share s in x > 0. && x < 0.005);
    common = pick (fun s -> share s > 0.10);
  }

(* Document frequency of every term spec over [docs] (unstemmed words),
   by one scan: a document counts for a term when it holds any stem of
   the term's expansion. *)
let df_scan docs =
  let by_stem = Hashtbl.create 1024 in
  Array.iteri
    (fun t spec ->
      let q = query_of_terms [ spec ] in
      List.iter
        (fun (w, _) -> Hashtbl.add by_stem w t)
        (Option.value q.Pj_matching.Query.matchers.(0).Pj_matching.Matcher.expansions
           ~default:[]))
    term_specs;
  let counts = Array.make (Array.length term_specs) 0 in
  let seen = Array.make (Array.length term_specs) (-1) in
  Array.iteri
    (fun d ws ->
      Array.iter
        (fun w ->
          List.iter
            (fun t ->
              if seen.(t) <> d then begin
                seen.(t) <- d;
                counts.(t) <- counts.(t) + 1
              end)
            (Hashtbl.find_all by_stem (stem w)))
        ws)
    docs;
  let index = Hashtbl.create 512 in
  Array.iteri (fun t spec -> Hashtbl.replace index spec t) term_specs;
  fun spec -> counts.(Hashtbl.find index spec)

type query = {
  cls : cls;
  family : string;
  alpha : float;
  k : int;
  terms : string list;
}

let line q =
  Printf.sprintf "SEARCH %s %g %d %s" q.family q.alpha q.k
    (String.concat " " q.terms)

let families = [| "win"; "med"; "max" |]

(* Distinct terms drawn from [pool]s, one pool per slot. *)
let draw_terms rng slots =
  let rec go acc = function
    | [] -> List.rev acc
    | pool :: rest ->
        let rec fresh tries =
          let t = Prng.choose rng pool in
          if List.mem t acc && tries > 0 then fresh (tries - 1) else t
        in
        go (fresh 20 :: acc) rest
  in
  go [] slots

(* One query of class [cls] with [n] terms. Slot [s] takes the term at
   relative position [at s] of its pool (a share in [0, 1), so in
   document-frequency order); a term already in the query moves on to
   the next one. For a mixed query, how many terms are rare is drawn. *)
let query rng pools ~n ~family ~k ~at cls =
  let r = match cls with Mixed -> Prng.int_in rng 1 (n - 1) | _ -> 0 in
  let pool s =
    match cls with
    | Rare -> pools.rare
    | Common -> pools.common
    | Mixed -> if s < r then pools.rare else pools.common
  in
  let terms =
    List.fold_left
      (fun acc s ->
        let p = pool s in
        let len = Array.length p in
        let rec free i =
          if List.mem p.(i mod len) acc && i < 2 * len then free (i + 1)
          else p.(i mod len)
        in
        free (int_of_float (at s *. float_of_int len)) :: acc)
      [] (List.init n Fun.id)
  in
  { cls; family; alpha = 0.2; k; terms = List.rev terms }

(* [n] queries, stratified: query [i] is of class [classes.(i mod c)],
   and the queries of each class cycle through every shape (2, 3 or 4
   terms) x (win, med, max) x [ks]. Every class and shape has its exact
   share, and when the queries are ranked by popularity no class owns
   the head. Term slots are a Latin hypercube over document frequency:
   across a class's [m] queries, slot [s] takes each [1/m] stratum of its
   pool exactly once, in a seeded order per slot, so every seed's mix
   spans the same range of selectivity and seeds differ in how they
   pair terms. *)
let queries ~seed pools ~ks ~classes n =
  let rng = Prng.create seed in
  let c = Array.length classes in
  let m = (n + c - 1) / c in
  let strata =
    Array.init 4 (fun _ ->
        let p = Array.init m Fun.id in
        Prng.shuffle rng p;
        p)
  in
  Array.init n (fun i ->
      let j = i / c in
      let at s =
        (float_of_int strata.(s).(j) +. Prng.float rng 1.) /. float_of_int m
      in
      query rng pools ~n:(2 + (j mod 3))
        ~family:families.(j / 3 mod 3)
        ~k:ks.(j / 9 mod Array.length ks)
        ~at classes.(i mod c))

(* Common-class queries of 2-3 terms, alternately all flat ([exact:])
   and all graded ([wordnet:]): the engine probe's split, where flat
   queries are the control for block-max pruning. *)
let flat_and_graded ~seed pools n =
  let rng = Prng.create seed in
  let common graded =
    Array.of_list (List.filter (fun s -> is_graded s = graded) (Array.to_list pools.common))
  in
  let flat = common false and graded = common true in
  Array.init (2 * n) (fun i ->
      let pool = if i mod 2 = 0 then flat else graded in
      {
        cls = Common;
        family = Prng.choose rng families;
        alpha = 0.2;
        k = 10;
        terms = draw_terms rng (List.init (Prng.int_in rng 2 3) (fun _ -> pool));
      })
