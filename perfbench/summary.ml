(* Order statistics and the result line. *)

(* Pj_util.Stats' percentile and median, [nan] for no samples: a run
   with an empty class reports a non-finite metric and fails, rather
   than dying on an assertion. *)
let percentile xs p = if xs = [||] then nan else Pj_util.Stats.percentile xs p
let median xs = if xs = [||] then nan else Pj_util.Stats.median xs

(* The highest percentile of the ladder with at least ten samples
   beyond it: a percentile with fewer samples above it is one or two
   outliers, not a tail. [None] when even the median lacks them. *)
let ladder = [ 99.99; 99.9; 99.; 90.; 50. ]

let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (100. -. p) /. 100. >= 10.)
    ladder

(* [a / b], 0 when [b] is 0: ratios over counts a workload may not
   exercise at all (no adds, no cache). *)
let ratio a b = if b = 0. then 0. else a /. b

(* --- output ------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* The one line the harness reads: the last line of standard output. *)
let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
