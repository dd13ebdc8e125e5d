type t = {
  mutable assign : int array;  (* term -> resource it holds, -1 = none *)
  mutable used : int array;  (* resource -> units handed out *)
  mutable seen : int array;  (* resource -> round of its last visit *)
  mutable round : int;
  (* Scratch for [problem]: the adjacency it builds over locations. *)
  mutable adj : int array array;
  mutable deg : int array;
  mutable cap : int array;
  mutable locs : int array;  (* resource -> its location *)
}

let create () =
  {
    assign = [||];
    used = [||];
    seen = [||];
    round = 0;
    adj = [||];
    deg = [||];
    cap = [||];
    locs = [||];
  }

let ensure w ~terms ~resources =
  if Array.length w.assign < terms then w.assign <- Array.make terms (-1);
  if Array.length w.used < resources then begin
    w.used <- Array.make resources 0;
    (* Rounds only grow and start at 1, so 0 never reads as visited. *)
    w.seen <- Array.make resources 0
  end

(* Kuhn's augmenting path from term [j]: take a free unit of some
   reachable resource, or move one of a full resource's holders to
   another resource and take its unit. Each resource is visited at most
   once per round, which for capacitated resources is the same as
   visiting all [cap r] interchangeable copies of it. State changes
   only along a successful path. *)
let rec augment w adj deg cap terms j =
  let a = adj.(j) and found = ref false and i = ref 0 in
  while (not !found) && !i < deg.(j) do
    let r = a.(!i) in
    incr i;
    if cap.(r) > 0 && w.seen.(r) <> w.round then begin
      w.seen.(r) <- w.round;
      if w.used.(r) < cap.(r) then begin
        w.used.(r) <- w.used.(r) + 1;
        w.assign.(j) <- r;
        found := true
      end
      else begin
        let k = ref 0 in
        while (not !found) && !k < terms do
          if w.assign.(!k) = r && augment w adj deg cap terms !k then begin
            (* [k] moved off [r]; [j] takes the unit it freed. *)
            w.assign.(j) <- r;
            found := true
          end;
          incr k
        done
      end
    end
  done;
  !found

let assignable w ~adj ~deg ~cap ~resources ~terms =
  ensure w ~terms ~resources;
  Array.fill w.used 0 resources 0;
  Array.fill w.assign 0 terms (-1);
  let ok = ref true and j = ref 0 in
  while !ok && !j < terms do
    w.round <- w.round + 1;
    if not (augment w adj deg cap terms !j) then ok := false;
    incr j
  done;
  !ok

(* Distinct locations of a sorted list, counted up to [limit]. *)
let distinct_upto (l : Match_list.t) limit =
  let len = Array.length l in
  let c = ref (if len > 0 then 1 else 0) and i = ref 1 in
  while !c < limit && !i < len do
    if l.(!i).Match0.loc <> l.(!i - 1).Match0.loc then incr c;
    incr i
  done;
  !c

let key = Domain.DLS.new_key create

let problem (p : Match_list.problem) =
  let n = Array.length p in
  if Match_list.has_empty_list p then false
  else begin
    (* Terms with [n] or more distinct locations are left out: whatever
       the other [n - 1] terms hold, one of theirs is still free. *)
    let poor = ref 0 in
    for j = 0 to n - 1 do
      if distinct_upto p.(j) n < n then incr poor
    done;
    if !poor <= 1 then true
    else begin
      let w = Domain.DLS.get key in
      let terms = !poor and width = n - 1 in
      let max_res = terms * width in
      if Array.length w.deg < terms || Array.length w.adj.(0) < width then begin
        let rows = Stdlib.max terms (Array.length w.deg)
        and cols =
          Stdlib.max width (if Array.length w.adj = 0 then 0 else Array.length w.adj.(0))
        in
        w.adj <- Array.init rows (fun _ -> Array.make cols 0);
        w.deg <- Array.make rows 0
      end;
      if Array.length w.locs < max_res then begin
        w.locs <- Array.make max_res 0;
        w.cap <- Array.make max_res 1
      end;
      let resources = ref 0 and t = ref 0 in
      for j = 0 to n - 1 do
        let l = p.(j) in
        if distinct_upto l n < n then begin
          let row = w.adj.(!t) and d = ref 0 in
          for i = 0 to Array.length l - 1 do
            let loc = l.(i).Match0.loc in
            if i = 0 || loc <> l.(i - 1).Match0.loc then begin
              let r = ref 0 in
              while !r < !resources && w.locs.(!r) <> loc do
                incr r
              done;
              if !r = !resources then begin
                w.locs.(!r) <- loc;
                incr resources
              end;
              row.(!d) <- !r;
              incr d
            end
          done;
          w.deg.(!t) <- !d;
          incr t
        end
      done;
      assignable w ~adj:w.adj ~deg:w.deg ~cap:w.cap ~resources:!resources
        ~terms
    end
  end
