type contribution = Match0.t -> int -> float

(* dominates m m' l <=> c (m, l) >= c (m', l); ties count as dominance so
   that the later of two tying matches wins (footnote 4). *)
let dominates c m m' l = c m l >= c m' l

let dominating_list c (lst : Match_list.t) =
  let stack = Pj_util.Vec.create () in
  Array.iter
    (fun m ->
      let loc = m.Match0.loc in
      if
        Pj_util.Vec.is_empty stack
        || dominates c m (Pj_util.Vec.last stack) loc
      then begin
        let continue = ref true in
        while !continue && not (Pj_util.Vec.is_empty stack) do
          let top = Pj_util.Vec.last stack in
          if dominates c m top top.Match0.loc then
            ignore (Pj_util.Vec.pop stack)
          else continue := false
        done;
        Pj_util.Vec.push stack m
      end)
    lst;
  Pj_util.Vec.to_array stack

(* The last pick lives in the cursor itself, so a query allocates
   nothing: [chosen], [succeeds] and [value] are overwritten by every
   successful [query]. *)
type cursor = {
  contribution : contribution;
  doms : Match0.t array;
  mutable next : int;  (* index of the first dominating match with loc > last query *)
  mutable chosen : Match0.t;
  mutable succeeds : bool;
  mutable value : float;
}

let no_match = Match0.make ~loc:0 ~score:0. ()

let cursor c doms =
  {
    contribution = c;
    doms;
    next = 0;
    chosen = no_match;
    succeeds = false;
    value = 0.;
  }

let pick cur m ~succeeds v =
  cur.chosen <- m;
  cur.succeeds <- succeeds;
  cur.value <- v

let query cur l =
  let n = Array.length cur.doms in
  if n = 0 then false
  else begin
    while cur.next < n && cur.doms.(cur.next).Match0.loc <= l do
      cur.next <- cur.next + 1
    done;
    let i = cur.next in
    if i = n then begin
      let m = cur.doms.(n - 1) in
      pick cur m ~succeeds:false (cur.contribution m l)
    end
    else if i = 0 then begin
      let m = cur.doms.(0) in
      pick cur m ~succeeds:true (cur.contribution m l)
    end
    else begin
      (* Prefer the succeeding match on ties (footnote 3). *)
      let m1 = cur.doms.(i - 1) and m2 = cur.doms.(i) in
      let v1 = cur.contribution m1 l and v2 = cur.contribution m2 l in
      if v2 >= v1 then pick cur m2 ~succeeds:true v2
      else pick cur m1 ~succeeds:false v1
    end;
    true
  end

let chosen cur = cur.chosen
let succeeds cur = cur.succeeds
let value cur = cur.value

let pointwise_max c (lst : Match_list.t) l =
  Array.fold_left (fun acc m -> Float.max acc (c m l)) neg_infinity lst

let pointwise_argmax c (lst : Match_list.t) l =
  (* Ties toward the later match, consistent with [dominating_list]. *)
  let best = ref None in
  Array.iter
    (fun m ->
      let v = c m l in
      match !best with
      | Some (_, bv) when bv > v -> ()
      | _ -> best := Some (m, v))
    lst;
  !best

let interval_pairs c (lst : Match_list.t) ~lo ~hi =
  if Array.length lst = 0 || lo > hi then []
  else begin
    let segments = ref [] in
    let current = ref None in
    for l = lo to hi do
      match pointwise_argmax c lst l with
      | None -> ()
      | Some (m, _) -> begin
          match !current with
          | Some (a, _, m') when Match0.equal m m' ->
              current := Some (a, l, m')
          | Some seg ->
              segments := seg :: !segments;
              current := Some (l, l, m)
          | None -> current := Some (l, l, m)
        end
    done;
    (match !current with
    | Some seg -> segments := seg :: !segments
    | None -> ());
    List.rev !segments
  end
