type t = int

let max_terms = 30

let empty = 0

let full n =
  assert (n >= 0 && n <= max_terms);
  (1 lsl n) - 1

let singleton j = 1 lsl j
let mem j s = s land (1 lsl j) <> 0
let add j s = s lor (1 lsl j)
let remove j s = s land lnot (1 lsl j)

let cardinal s =
  let rec loop s acc = if s = 0 then acc else loop (s lsr 1) (acc + (s land 1)) in
  loop s 0

let is_empty s = s = 0
let equal (a : t) b = a = b

let iter_elements s f =
  let rec loop j s =
    if s <> 0 then begin
      if s land 1 <> 0 then f j;
      loop (j + 1) (s lsr 1)
    end
  in
  loop 0 s

let elements s =
  let acc = ref [] in
  iter_elements s (fun j -> acc := j :: !acc);
  List.rev !acc

let iter_nonempty n f =
  for s = 1 to full n do
    f s
  done

let by_decreasing_size n =
  let order = Array.make (full n) 0 and k = ref 0 in
  for size = n downto 1 do
    for s = 1 to full n do
      if cardinal s = size then begin
        order.(!k) <- s;
        incr k
      end
    done
  done;
  order

let iter_by_decreasing_size n f = Array.iter f (by_decreasing_size n)
