type t = Match0.t array

let min_loc (m : t) =
  assert (Array.length m > 0);
  Array.fold_left (fun acc x -> Stdlib.min acc x.Match0.loc) max_int m

let max_loc (m : t) =
  assert (Array.length m > 0);
  Array.fold_left (fun acc x -> Stdlib.max acc x.Match0.loc) min_int m

let window m = max_loc m - min_loc m

(* The k-th greatest location, k = floor((n+1)/2), by counting rather
   than sorting: location x holds rank k iff fewer than k locations
   exceed it and at least k reach it. O(n^2) over the n query terms,
   and no allocation — it runs once per scored candidate location. *)
let median_loc (m : t) =
  let n = Array.length m in
  assert (n > 0);
  let k = (n + 1) / 2 in
  let result = ref m.(0).Match0.loc and found = ref false and i = ref 0 in
  while not !found do
    let x = m.(!i).Match0.loc in
    let above = ref 0 and reach = ref 0 in
    for j = 0 to n - 1 do
      let y = m.(j).Match0.loc in
      if y > x then incr above;
      if y >= x then incr reach
    done;
    if !above < k && k <= !reach then begin
      result := x;
      found := true
    end;
    incr i
  done;
  !result

let is_valid (m : t) =
  let n = Array.length m in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Match0.same_token m.(i) m.(j) then ok := false
    done
  done;
  !ok

let locations (m : t) = Array.map (fun x -> x.Match0.loc) m

let equal (a : t) b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if not (Match0.equal x b.(i)) then ok := false) a;
       !ok
     end

let pp ppf (m : t) =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Match0.pp)
    m
