type t = { index : Pj_index.Inverted_index.t }

let create index = { index }
let index t = t.index

type hit = {
  doc_id : int;
  score : float;
  matchset : Pj_core.Matchset.t;
}

(* --- document-at-a-time cursors ---------------------------------------- *)

(* One query term = the union of its expansion forms' posting lists,
   traversed as a bank of cursors (never materialized). [max_score] is
   the best expansion score with any posting at all — the term's
   contribution ceiling for max-score pruning. *)
type term_cursor = {
  forms : Pj_index.Posting_list.cursor array;
  scores : float array;
  payloads : int array;  (** token id of each form, for match payloads *)
  max_score : float;
}

let term_cursor t (m : Pj_matching.Matcher.t) =
  match m.Pj_matching.Matcher.expansions with
  | None ->
      invalid_arg
        (Printf.sprintf "Searcher: matcher %s has no finite expansions"
           m.Pj_matching.Matcher.name)
  | Some expansions ->
      let vocab =
        Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus t.index)
      in
      let forms = Pj_util.Vec.create ()
      and scores = Pj_util.Vec.create ()
      and payloads = Pj_util.Vec.create () in
      List.iter
        (fun (form, score) ->
          match Pj_text.Vocab.find vocab form with
          | None -> ()
          | Some tok ->
              (* Cursor, not list: a mmap-backed index streams blocks on
                 demand, so a form is "present" iff its fresh cursor
                 sits on a first document. *)
              let c = Pj_index.Inverted_index.cursor t.index tok in
              if Pj_index.Posting_list.current_doc c >= 0 then begin
                Pj_util.Vec.push forms c;
                Pj_util.Vec.push scores score;
                Pj_util.Vec.push payloads tok
              end)
        expansions;
      let scores = Pj_util.Vec.to_array scores in
      {
        forms = Pj_util.Vec.to_array forms;
        scores;
        payloads = Pj_util.Vec.to_array payloads;
        max_score = Array.fold_left Float.max 0. scores;
      }

(* Smallest document id under any form cursor; -1 once all exhausted. *)
let term_current tc =
  let d = ref (-1) in
  Array.iter
    (fun c ->
      let cd = Pj_index.Posting_list.current_doc c in
      if cd >= 0 && (!d < 0 || cd < !d) then d := cd)
    tc.forms;
  !d

let term_seek tc target =
  Array.iter (fun c -> Pj_index.Posting_list.seek c target) tc.forms

(* Best expansion score among forms present in [doc] — equals the
   maximum individual match score of the term's match list for [doc],
   without building it. *)
let term_best_at tc doc =
  let best = ref 0. in
  Array.iteri
    (fun i c ->
      if Pj_index.Posting_list.current_doc c = doc then
        best := Float.max !best tc.scores.(i))
    tc.forms;
  !best

(* Leapfrog the term cursors over every document carrying at least one
   posting for every term, in increasing id order. [check] runs once
   per alignment round (so deadlines hold even through long barren
   stretches of the intersection); [on_candidate] may raise to stop. *)
let daat_iter ~check terms on_candidate =
  let n = Array.length terms in
  (* Invariant: term 0 sits on [start]; realign the rest round-robin
     until n consecutive cursors agree on one document. *)
  let align start =
    let target = ref start
    and idx = ref (1 mod n)
    and agreed = ref 1
    and result = ref (-2) in
    while !result = -2 do
      check ();
      if !agreed = n then result := !target
      else begin
        let tc = terms.(!idx) in
        term_seek tc !target;
        let d = term_current tc in
        if d < 0 then result := -1
        else begin
          if d = !target then incr agreed
          else begin
            target := d;
            agreed := 1
          end;
          idx := (!idx + 1) mod n
        end
      end
    done;
    !result
  in
  let continue_from start =
    if start < 0 then -1 else align start
  in
  let current = ref (continue_from (term_current terms.(0))) in
  while !current >= 0 do
    let doc = !current in
    on_candidate doc;
    term_seek terms.(0) (doc + 1);
    current := continue_from (term_current terms.(0))
  done

let with_term_cursors t (q : Pj_matching.Query.t) ~none ~some =
  let n = Array.length q.Pj_matching.Query.matchers in
  if n = 0 then none
  else begin
    let terms = Array.map (term_cursor t) q.Pj_matching.Query.matchers in
    (* A term with no indexed form makes the conjunction empty. *)
    if Array.exists (fun tc -> Array.length tc.forms = 0) terms then none
    else some terms
  end

let candidates t q =
  with_term_cursors t q ~none:[||] ~some:(fun terms ->
      let out = Pj_util.Vec.create () in
      daat_iter ~check:(fun () -> ()) terms (fun doc ->
          Pj_util.Vec.push out doc);
      Pj_util.Vec.to_array out)

(* --- duplicate-free feasibility over form tokens ------------------------ *)

(* With dedup on, a candidate scores only if every term can be given its
   own token occurrence. Here the resources are the query's distinct
   form tokens: term [j] may use the tokens of its forms, and a token's
   capacity in the candidate is its term frequency there. Positions of
   distinct tokens never coincide, so this is exactly the location test
   of [Pj_core.Feasibility.problem] on the match lists the candidate
   would build — answered before building them. When no token serves
   two terms, every aligned candidate passes and the test is skipped. *)
type tokens = {
  adj : int array array;  (* term -> form -> resource *)
  deg : int array;  (* term -> number of forms *)
  cap : int array;  (* resource -> term frequency in the candidate *)
  shared : bool;  (* does some token serve two terms? *)
  ws : Pj_core.Feasibility.t;
}

let tokens terms =
  let ids : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let shared = ref false in
  let adj =
    Array.mapi
      (fun j tc ->
        Array.map
          (fun tok ->
            match Hashtbl.find_opt ids tok with
            | Some (r, owner) ->
                if owner <> j then shared := true;
                r
            | None ->
                let r = Hashtbl.length ids in
                Hashtbl.add ids tok (r, j);
                r)
          tc.payloads)
      terms
  in
  {
    adj;
    deg = Array.map Array.length adj;
    cap = Array.make (Hashtbl.length ids) 0;
    shared = !shared;
    ws = Pj_core.Feasibility.create ();
  }

(* Every cursor of every term must sit at or past [doc_id]. *)
let tokens_assignable tk terms doc_id =
  Array.fill tk.cap 0 (Array.length tk.cap) 0;
  for j = 0 to Array.length terms - 1 do
    let forms = terms.(j).forms and res = tk.adj.(j) in
    for i = 0 to Array.length forms - 1 do
      let c = forms.(i) in
      if Pj_index.Posting_list.current_doc c = doc_id then
        tk.cap.(res.(i)) <- Pj_index.Posting_list.current_tf c
    done
  done;
  Pj_core.Feasibility.assignable tk.ws ~adj:tk.adj ~deg:tk.deg ~cap:tk.cap
    ~resources:(Array.length tk.cap) ~terms:(Array.length terms)

(* --- match lists off the cursors ---------------------------------------- *)

(* Per-query scratch for building a candidate's match lists: the
   positions of the forms present are decoded into one reused buffer,
   one sorted run per form, and merged into the term's list. Each form
   has a prototype match carrying its score and token, so a match is
   one small record copy. *)
type builder = {
  protos : Pj_core.Match0.t array array;  (* term -> form -> prototype *)
  mutable buf : int array;
  run_form : int array;  (* run -> form index *)
  run_at : int array;  (* run -> next unread buffer index *)
  run_end : int array;  (* run -> end of its buffer slice *)
}

let builder terms =
  let max_forms =
    Array.fold_left (fun m tc -> Stdlib.max m (Array.length tc.forms)) 0 terms
  in
  {
    protos =
      Array.map
        (fun tc ->
          Array.mapi
            (fun i score ->
              Pj_core.Match0.make ~payload:tc.payloads.(i) ~loc:0 ~score ())
            tc.scores)
        terms;
    buf = Array.make 64 0;
    run_form = Array.make max_forms 0;
    run_at = Array.make max_forms 0;
    run_end = Array.make max_forms 0;
  }

(* The match list of [tc] (term [j]) at [doc_id], sorted by location
   with one match per location — the best-scoring one, should two
   forms ever share a position. *)
let build_list b j tc doc_id =
  let protos = b.protos.(j) and runs = ref 0 and total = ref 0 in
  for i = 0 to Array.length tc.forms - 1 do
    let c = tc.forms.(i) in
    if Pj_index.Posting_list.current_doc c = doc_id then begin
      let tf = Pj_index.Posting_list.current_tf c in
      if !total + tf > Array.length b.buf then begin
        let grown = Array.make (2 * (!total + tf)) 0 in
        Array.blit b.buf 0 grown 0 !total;
        b.buf <- grown
      end;
      Pj_index.Posting_list.positions_into c b.buf !total;
      b.run_form.(!runs) <- i;
      b.run_at.(!runs) <- !total;
      total := !total + tf;
      b.run_end.(!runs) <- !total;
      incr runs
    end
  done;
  if !runs = 0 then [||]
  else begin
    let out = Array.make !total protos.(b.run_form.(0)) and n = ref 0 in
    for _ = 1 to !total do
      (* The run with the smallest head; the best score among heads at
         one location. *)
      let best = ref (-1) in
      for r = 0 to !runs - 1 do
        if b.run_at.(r) < b.run_end.(r) then
          if !best < 0 then best := r
          else begin
            let loc = b.buf.(b.run_at.(r))
            and best_loc = b.buf.(b.run_at.(!best)) in
            if
              loc < best_loc
              || loc = best_loc
                 && tc.scores.(b.run_form.(r)) > tc.scores.(b.run_form.(!best))
            then best := r
          end
      done;
      let r = !best in
      let loc = b.buf.(b.run_at.(r)) in
      b.run_at.(r) <- b.run_at.(r) + 1;
      if !n = 0 || out.(!n - 1).Pj_core.Match0.loc <> loc then begin
        out.(!n) <- { (protos.(b.run_form.(r))) with Pj_core.Match0.loc };
        incr n
      end
    done;
    if !n = !total then out else Array.sub out 0 !n
  end

exception Expired
exception Early_stop

(* Raise a shared threshold to [v] (monotone: only ever increases).
   [compare_and_set] on the freshly read box retries cleanly under
   contention from sibling shard domains. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

let search_impl ?deadline ?threshold ?accept ?(blockmax = true) ~k ~dedup
    ~prune t scoring q =
  if k < 0 then invalid_arg "Searcher.search: negative k";
  (* Block-max traversal is a pruning strategy; without pruning there
     is no threshold to skip against. *)
  let blockmax = blockmax && prune in
  let accepted =
    match accept with None -> fun _ -> true | Some f -> f
  in
  let check_deadline =
    match deadline with
    | None -> fun () -> ()
    | Some d ->
        fun () -> if Pj_util.Timing.monotonic_now () > d then raise Expired
  in
  (* A deadline already in the past times out before anything else. *)
  check_deadline ();
  if k = 0 then []
  else
    with_term_cursors t q ~none:[] ~some:(fun terms ->
        (* Bounded result set: a min-heap of size k; the root is the
           weakest hit and is evicted when a better one arrives. *)
        let heap =
          Pj_util.Heap.create ~leq:(fun a b ->
              (* max-heap orders by leq; invert to keep the weakest on
                 top. Prefer evicting larger doc ids on ties. *)
              match compare b.score a.score with
              | 0 -> a.doc_id <= b.doc_id
              | c -> c <= 0)
        in
        (* The same-for-every-document score ceiling: once the heap root
           beats it, no remaining document can enter the heap (later
           candidates also lose every doc-id tie), so the whole scan can
           stop. *)
        let global_bound =
          lazy
            (Pj_core.Scoring.upper_bound scoring
               (Array.map (fun tc -> tc.max_score) terms))
        in
        (* Once this fragment holds k hits, its weakest score is a
           lower bound on the *global* k-th score (a subset's k-th best
           never exceeds the union's), so it is safe to publish into
           the shared threshold for sibling shards to prune against. *)
        let publish () =
          match threshold with
          | None -> ()
          | Some tau ->
              if Pj_util.Heap.length heap = k then begin
                match Pj_util.Heap.peek heap with
                | Some weakest -> atomic_max tau weakest.score
                | None -> ()
              end
        in
        (* Match lists come straight off the term cursors: at candidate
           time [daat_iter] has sought every form cursor of every term
           to at least [doc_id], and a cursor sits exactly on [doc_id]
           iff its form occurs there — so the positions are already in
           hand, with no per-form re-seek through the index (which on a
           mmap-backed index would decode blocks from scratch for every
           solved candidate). *)
        (* Built on the first solved candidate: a query that solves
           none (most rare ones) never pays for it. *)
        let scratch = lazy (tokens terms, builder terms) in
        (* Reused across candidates: nothing downstream keeps it. *)
        let problem = Array.make (Array.length terms) [||] in
        let offer hit =
          if Pj_util.Heap.length heap < k then begin
            Pj_util.Heap.push heap hit;
            publish ()
          end
          else begin
            match Pj_util.Heap.peek heap with
            | Some weakest
              when hit.score > weakest.score
                   || (hit.score = weakest.score
                      && hit.doc_id < weakest.doc_id) ->
                ignore (Pj_util.Heap.pop heap);
                Pj_util.Heap.push heap hit;
                publish ()
            | Some _ | None -> ()
          end
        in
        let solve doc_id =
          (* Under block-max traversal, non-essential form cursors are
             not driven by the alignment; drag them up to the candidate
             now so the match lists are complete. A cursor already at
             or past [doc_id] makes this a no-op. *)
          if blockmax then
            Array.iter (fun tc -> term_seek tc doc_id) terms;
          let tk, b = Lazy.force scratch in
          (* A candidate without a duplicate-free matchset would solve
             to [None]: skip it before building anything. *)
          if (not (dedup && tk.shared)) || tokens_assignable tk terms doc_id
          then begin
            for j = 0 to Array.length terms - 1 do
              problem.(j) <- build_list b j terms.(j) doc_id
            done;
            match Pj_core.Best_join.solve ~dedup scoring problem with
            | None -> ()
            | Some r ->
                offer
                  {
                    doc_id;
                    score = r.Pj_core.Naive.score;
                    matchset = r.Pj_core.Naive.matchset;
                  }
          end
        in
        (* The cross-shard prunes are *strict*: the shared threshold
           comes from hits whose doc ids may be smaller than this
           fragment's candidates, so — unlike the within-fragment
           checks — a tied bound could still win the global tiebreak
           and must be solved. *)
        let shared () =
          match threshold with
          | None -> Float.neg_infinity
          | Some tau -> Atomic.get tau
        in
        let on_candidate doc_id =
          check_deadline ();
          (* Tombstoned documents are invisible: skipped before any
             solving or threshold publication, exactly as if their
             postings were absent. *)
          if not (accepted doc_id) then ()
          else if not prune then solve doc_id
          else begin
            let tau = shared () in
            if Lazy.force global_bound < tau then
              (* No document of this fragment can reach the global
                 top-k: even the proximity-free per-term ceilings fall
                 strictly short of a score k hits already beat. *)
              raise Early_stop;
            if Pj_util.Heap.length heap < k then begin
              if tau = Float.neg_infinity then solve doc_id
              else begin
                let best =
                  Array.map (fun tc -> term_best_at tc doc_id) terms
                in
                let bound = Pj_core.Scoring.upper_bound scoring best in
                if bound >= tau then solve doc_id
              end
            end
            else begin
              match Pj_util.Heap.peek heap with
              | None -> solve doc_id
              | Some weakest ->
                  if Lazy.force global_bound <= weakest.score then
                    (* Candidates arrive in increasing doc id, so a tied
                       bound can never win the tiebreak either. *)
                    raise Early_stop
                  else begin
                    (* Per-document upper bound from the forms actually
                       present — the proximity-free prune of
                       [Scoring.upper_bound], now without building the
                       match-list problem first. *)
                    let best =
                      Array.map (fun tc -> term_best_at tc doc_id) terms
                    in
                    let bound = Pj_core.Scoring.upper_bound scoring best in
                    if bound < tau then ()
                    else if
                      bound > weakest.score
                      || (bound = weakest.score && doc_id < weakest.doc_id)
                    then solve doc_id
                  end
            end
          end
        in
        (* --- block-max traversal --------------------------------------
           The skip metadata the cursors already carry ([block_max_score]
           / [block_last_doc]), put to work. Two lossless accelerations
           on top of the plain conjunction:

           - Essential-form pruning (max-score over the expansion
             banks): a form whose score ceiling cannot lift any document
             past the current threshold — even with every *other* term
             at its live maximum — stops driving the alignment. Its
             postings are only dragged forward when a candidate is
             actually solved, so dense low-scored expansions no longer
             force the intersection to crawl their lists. Live maxima
             are exhaustion-aware: a finished cursor's score leaves the
             bound, which tightens the early-stop as lists drain.

           - Block-granular region skips ("next-shallow" moves): at an
             aligned candidate [d], let [h] be the shallowest
             [block_last_doc] among the driving cursors. Within [d, h]
             only forms whose cursor already sits at or before [h] can
             occur, so [Scoring.upper_bound] over those per-term
             regional maxima bounds every document in the region at
             once; when it loses to the threshold, every driving cursor
             skips past [h] in one galloping move — on a mmap-backed
             index that crosses block boundaries through the skip table
             without decoding a posting.

           Both prunes are sound for the strict shared-threshold rule
           and the tie-aware in-fragment rule (candidates arrive in
           increasing doc id, so a tied bound always loses), keeping
           results byte-identical to the exhaustive scan. Match scores
           are the static expansion-form scores, so form presence — not
           the tf-impact ceiling — is the per-block quantity these
           bounds are built from; the impact metadata itself stays an
           admissible ceiling for impact-weighted consumers. *)
        let run_blockmax () =
          let n = Array.length terms in
          let ess =
            Array.map (fun tc -> Array.make (Array.length tc.forms) true) terms
          in
          let live_max = Array.map (fun tc -> tc.max_score) terms in
          let last_full = ref false
          and last_root = ref Float.neg_infinity
          and last_shared = ref Float.neg_infinity in
          (* Could a document with upper bound [b] still enter the heap?
             Strict against the shared threshold (a sibling shard's tied
             hit may have a larger doc id); tie-losing against our own
             root (later candidates have larger ids). *)
          let could_win b =
            b >= !last_shared && ((not !last_full) || b > !last_root)
          in
          let sig_changed () =
            let full = Pj_util.Heap.length heap = k in
            let root =
              match Pj_util.Heap.peek heap with
              | Some w -> w.score
              | None -> Float.neg_infinity
            in
            let sh = shared () in
            if full <> !last_full || root <> !last_root || sh <> !last_shared
            then begin
              last_full := full;
              last_root := root;
              last_shared := sh;
              true
            end
            else false
          in
          (* Recompute live maxima and re-classify the form banks
             against the moved threshold. Essential sets only shrink
             (thresholds are monotone), and whenever the traversal may
             continue, each term's top live form is essential — its
             per-form bound *is* the global live bound. *)
          let refresh () =
            Array.iteri
              (fun j tc ->
                let m = ref 0. in
                Array.iteri
                  (fun i c ->
                    if
                      Pj_index.Posting_list.current_doc c >= 0
                      && tc.scores.(i) > !m
                    then m := tc.scores.(i))
                  tc.forms;
                live_max.(j) <- !m)
              terms;
            if not (could_win (Pj_core.Scoring.upper_bound scoring live_max))
            then raise Early_stop;
            Array.iteri
              (fun j tc ->
                let saved = live_max.(j) in
                Array.iteri
                  (fun i c ->
                    if ess.(j).(i) then
                      if Pj_index.Posting_list.current_doc c < 0 then
                        ess.(j).(i) <- false
                      else begin
                        live_max.(j) <- tc.scores.(i);
                        if
                          not
                            (could_win
                               (Pj_core.Scoring.upper_bound scoring live_max))
                        then ess.(j).(i) <- false
                      end)
                  tc.forms;
                live_max.(j) <- saved)
              terms
          in
          let ess_current j =
            let tc = terms.(j) and e = ess.(j) in
            let d = ref (-1) in
            Array.iteri
              (fun i c ->
                if e.(i) then begin
                  let cd = Pj_index.Posting_list.current_doc c in
                  if cd >= 0 && (!d < 0 || cd < !d) then d := cd
                end)
              tc.forms;
            !d
          in
          let ess_seek j target =
            let tc = terms.(j) and e = ess.(j) in
            Array.iteri
              (fun i c -> if e.(i) then Pj_index.Posting_list.seek c target)
              tc.forms
          in
          (* Essential-bank leapfrog, same invariant as [daat_iter]:
             term 0's essential view sits on [start]. *)
          let align start =
            let target = ref start
            and idx = ref (1 mod n)
            and agreed = ref 1
            and result = ref (-2) in
            while !result = -2 do
              check_deadline ();
              if !agreed = n then result := !target
              else begin
                ess_seek !idx !target;
                let d = ess_current !idx in
                if d < 0 then result := -1
                else begin
                  if d = !target then incr agreed
                  else begin
                    target := d;
                    agreed := 1
                  end;
                  idx := (!idx + 1) mod n
                end
              end
            done;
            !result
          in
          let rb = Array.make n 0. in
          (* The next-shallow move. Only meaningful once some threshold
             exists; returns true after skipping every driving cursor
             past the region. *)
          let region_skip d =
            if not (!last_full || !last_shared > Float.neg_infinity) then
              false
            else begin
              let h = ref max_int in
              Array.iteri
                (fun j _ ->
                  let tc = terms.(j) and e = ess.(j) in
                  Array.iteri
                    (fun i c ->
                      if
                        e.(i) && Pj_index.Posting_list.current_doc c >= 0
                      then begin
                        let bl = Pj_index.Posting_list.block_last_doc c in
                        if bl >= 0 && bl < !h then h := bl
                      end)
                    tc.forms)
                terms;
              if !h = max_int || !h < d then false
              else begin
                Array.iteri
                  (fun j tc ->
                    let e = ess.(j) in
                    let m = ref 0. in
                    Array.iteri
                      (fun i c ->
                        if e.(i) then begin
                          let cd = Pj_index.Posting_list.current_doc c in
                          if cd >= 0 && cd <= !h && tc.scores.(i) > !m then
                            m := tc.scores.(i)
                        end)
                      tc.forms;
                    rb.(j) <- !m)
                  terms;
                if could_win (Pj_core.Scoring.upper_bound scoring rb) then
                  false
                else begin
                  let target = !h + 1 in
                  for j = 0 to n - 1 do
                    ess_seek j target
                  done;
                  true
                end
              end
            end
          in
          (* Advance to the next candidate that survives the region
             bound. The deadline is checked on every iteration: one
             round here may gallop across an arbitrary doc-id range,
             and must not outlive the budget doing so. *)
          let next_candidate start =
            let result = ref (-2) and start = ref start in
            while !result = -2 do
              if !start < 0 then result := -1
              else begin
                let d = align !start in
                if d < 0 then result := -1
                else begin
                  check_deadline ();
                  if sig_changed () then begin
                    refresh ();
                    (* The banks may have shrunk under [d]; realign on
                       the surviving essential forms. *)
                    start := ess_current 0
                  end
                  else if region_skip d then start := ess_current 0
                  else result := d
                end
              end
            done;
            !result
          in
          let current = ref (next_candidate (ess_current 0)) in
          while !current >= 0 do
            let doc = !current in
            on_candidate doc;
            ess_seek 0 (doc + 1);
            current := next_candidate (ess_current 0)
          done
        in
        (try
           if blockmax then run_blockmax ()
           else daat_iter ~check:check_deadline terms on_candidate
         with Early_stop -> ());
        (* Drain the heap weakest-first, then reverse into best-first
           order. *)
        let out = ref [] in
        let rec drain () =
          match Pj_util.Heap.pop heap with
          | Some h ->
              out := h :: !out;
              drain ()
          | None -> ()
        in
        drain ();
        !out)

let search ?(k = 10) ?(dedup = true) ?(prune = true) ?(blockmax = true) t
    scoring q =
  search_impl ~blockmax ~k ~dedup ~prune t scoring q

let search_within ?(k = 10) ?(dedup = true) ?(prune = true) ?(blockmax = true)
    ~deadline t scoring q =
  try Ok (search_impl ~deadline ~blockmax ~k ~dedup ~prune t scoring q)
  with Expired -> Error `Timeout

let search_fragment ?deadline ?threshold ?accept ?(k = 10) ?(dedup = true)
    ?(prune = true) ?(blockmax = true) t scoring q =
  try
    Ok
      (search_impl ?deadline ?threshold ?accept ~blockmax ~k ~dedup ~prune t
         scoring q)
  with Expired -> Error `Timeout
