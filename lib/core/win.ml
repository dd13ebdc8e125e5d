(* Best partial matchsets are shared persistently: each state points at
   the state it extends, so an update is O(1) and the final matchset is
   rebuilt once at the end. Score comparisons go through the scoring
   function's comparison key (a strictly increasing transform of f),
   which keeps e.g. exponentials out of the inner subset loop. *)
type chain =
  | Nil
  | Cons of int * Match0.t * chain  (* term, match, rest *)

(* One state per partial matchset P, as parallel arrays indexed by P:
   the float array keeps [g_sum] unboxed, so an update stores a float
   instead of allocating one. *)
type states = {
  live : bool array;  (* is there a P-matchset yet? *)
  g_sum : float array;  (* sum of g_j over the members *)
  l_min : int array;  (* smallest member location *)
  members : chain array;
}

let make_states size =
  {
    live = Array.make size false;
    g_sum = Array.make size 0.;
    l_min = Array.make size 0;
    members = Array.make size Nil;
  }

let[@inline] set st s g lmin members =
  st.live.(s) <- true;
  st.g_sum.(s) <- g;
  st.l_min.(s) <- lmin;
  st.members.(s) <- members

(* The matchset of a full chain, which holds every term exactly once. *)
let rebuild n chain =
  match chain with
  | Nil -> assert false
  | Cons (_, first, _) ->
      let a = Array.make n first in
      let rec walk filled = function
        | Nil -> filled
        | Cons (j, m, rest) ->
            a.(j) <- m;
            walk (filled + 1) rest
      in
      if walk 0 chain <> n then assert false;
      a

let best (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let full = Pj_util.Subset.full n in
    let st = make_states (full + 1) in
    (* Visit subsets containing [term] from larger to smaller so that
       P \ {term} still holds its value at the previous location. *)
    let order = Pj_util.Subset.by_decreasing_size n in
    let key = w.Scoring.win_key in
    let best_key = ref neg_infinity in
    let best_g = ref 0. in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    let process ~term m =
      let g = w.Scoring.win_g term m.Match0.score in
      let l = m.Match0.loc in
      let single = Pj_util.Subset.singleton term in
      for i = 0 to Array.length order - 1 do
        let s = order.(i) in
        if Pj_util.Subset.mem term s then begin
          if s = single then begin
            (* Best single-term matchset at l: either keep the previous
               best (aged to l) or restart at m with window 0. *)
            if
              (not st.live.(s))
              || key st.g_sum.(s) (l - st.l_min.(s)) < key g 0
            then set st s g l (Cons (term, m, Nil))
          end
          else begin
            let sub = Pj_util.Subset.remove term s in
            if st.live.(sub) then begin
              let cand_g = st.g_sum.(sub) +. g in
              let cand_lmin = st.l_min.(sub) in
              if
                (not st.live.(s))
                || key st.g_sum.(s) (l - st.l_min.(s))
                   < key cand_g (l - cand_lmin)
              then
                set st s cand_g cand_lmin (Cons (term, m, st.members.(sub)))
            end
          end
        end
      done;
      if st.live.(full) then begin
        let k = key st.g_sum.(full) (l - st.l_min.(full)) in
        if (not !have_best) || k > !best_key then begin
          have_best := true;
          best_key := k;
          best_g := st.g_sum.(full);
          best_window := l - st.l_min.(full);
          best_chain := st.members.(full)
        end
      end
    in
    Match_list.iter_in_location_order p process;
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f !best_g !best_window;
        }
    else None
  end

(* Extension beyond the paper's Section VI wrapper: an exact
   duplicate-aware variant of Algorithm 1 in the same O(2^|Q| sum |L|)
   bound. A valid matchset uses at most one match per location, so it is
   enough to process matches one location group at a time and extend
   only the states as they were before the group: within a group, a
   match can then never join a partial matchset containing a co-located
   match. The cut-and-paste optimality argument carries over unchanged,
   with groups in place of single matches. *)
let best_valid (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let full = Pj_util.Subset.full n in
    let st = make_states (full + 1) and sn = make_states (full + 1) in
    let key = w.Scoring.win_key in
    let best_key = ref neg_infinity in
    let best_g = ref 0. in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    (* Collect the matches of one location group, then fold them in. *)
    let group : (int * Match0.t) list ref = ref [] in
    let group_loc = ref min_int in
    let flush_group () =
      match !group with
      | [] -> ()
      | members ->
          let l = !group_loc in
          Array.blit st.live 0 sn.live 0 (full + 1);
          Array.blit st.g_sum 0 sn.g_sum 0 (full + 1);
          Array.blit st.l_min 0 sn.l_min 0 (full + 1);
          Array.blit st.members 0 sn.members 0 (full + 1);
          (* Extensions read the snapshot (pre-group states), so no two
             co-located matches can enter the same partial matchset. *)
          List.iter
            (fun (term, m) ->
              let g = w.Scoring.win_g term m.Match0.score in
              Pj_util.Subset.iter_nonempty n (fun s ->
                  if Pj_util.Subset.mem term s then begin
                    let consider cand_g cand_lmin cand_members =
                      if
                        (not st.live.(s))
                        || key st.g_sum.(s) (l - st.l_min.(s))
                           < key cand_g (l - cand_lmin)
                      then set st s cand_g cand_lmin cand_members
                    in
                    if Pj_util.Subset.equal s (Pj_util.Subset.singleton term)
                    then consider g l (Cons (term, m, Nil))
                    else begin
                      let sub = Pj_util.Subset.remove term s in
                      if sn.live.(sub) then
                        consider (sn.g_sum.(sub) +. g) sn.l_min.(sub)
                          (Cons (term, m, sn.members.(sub)))
                    end
                  end))
            members;
          if st.live.(full) then begin
            let k = key st.g_sum.(full) (l - st.l_min.(full)) in
            if (not !have_best) || k > !best_key then begin
              have_best := true;
              best_key := k;
              best_g := st.g_sum.(full);
              best_window := l - st.l_min.(full);
              best_chain := st.members.(full)
            end
          end;
          group := []
    in
    Match_list.iter_in_location_order p (fun ~term m ->
        if m.Match0.loc <> !group_loc then begin
          flush_group ();
          group_loc := m.Match0.loc
        end;
        group := (term, m) :: !group);
    flush_group ();
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f !best_g !best_window;
        }
    else None
  end

(* Order-constrained variant: members must appear in query-term order,
   so a partial matchset is always a prefix {q_1..q_k} and the DP keeps
   one state per prefix. When processing a match for term k at location
   l, it can only extend the best (k-1)-prefix at a location <= l —
   which is exactly the prefix state at the previous processing step,
   by the same cut-and-paste argument as Algorithm 1. Ties in location
   are processed in increasing term order so that a term-k match can
   extend a co-located term-(k-1) match (the constraint is non-strict). *)
let iter_by_location_then_term (p : Match_list.problem) f =
  let all = Pj_util.Vec.create () in
  Array.iteri
    (fun term l -> Array.iter (fun m -> Pj_util.Vec.push all (term, m)) l)
    p;
  let arr = Pj_util.Vec.to_array all in
  Array.sort
    (fun (ta, ma) (tb, mb) ->
      let c = compare ma.Match0.loc mb.Match0.loc in
      if c <> 0 then c
      else begin
        let c = compare ta tb in
        if c <> 0 then c else Match0.compare_by_loc ma mb
      end)
    arr;
  Array.iter (fun (term, m) -> f ~term m) arr

let best_ordered (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    (* State k: best ordered matchset over terms 0..k. *)
    let st = make_states n in
    let key = w.Scoring.win_key in
    let best_key = ref neg_infinity in
    let best_g = ref 0. in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    let process ~term m =
      let g = w.Scoring.win_g term m.Match0.score in
      let l = m.Match0.loc in
      if term = 0 then begin
        if (not st.live.(0)) || key st.g_sum.(0) (l - st.l_min.(0)) < key g 0
        then set st 0 g l (Cons (term, m, Nil))
      end
      else begin
        let sub = term - 1 in
        if st.live.(sub) then begin
          let cand_g = st.g_sum.(sub) +. g in
          if
            (not st.live.(term))
            || key st.g_sum.(term) (l - st.l_min.(term))
               < key cand_g (l - st.l_min.(sub))
          then
            set st term cand_g st.l_min.(sub) (Cons (term, m, st.members.(sub)))
        end
      end;
      let q = n - 1 in
      if st.live.(q) then begin
        let k = key st.g_sum.(q) (l - st.l_min.(q)) in
        if (not !have_best) || k > !best_key then begin
          have_best := true;
          best_key := k;
          best_g := st.g_sum.(q);
          best_window := l - st.l_min.(q);
          best_chain := st.members.(q)
        end
      end
    in
    iter_by_location_then_term p process;
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f !best_g !best_window;
        }
    else None
  end
