(* What the run reads about its own checkout: the metric names
   BENCHMARK.json declares, and a revision stamp for the metadata. *)

let read path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let index_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go i

(* The ["name"] values of one array section of BENCHMARK.json. The file
   is this repository's own, so a scan for its keys is enough. *)
let metric_names section =
  match read "BENCHMARK.json" with
  | None -> []
  | Some s -> (
      match index_from s 0 (Printf.sprintf "\"%s\"" section) with
      | None -> []
      | Some start ->
          let stop = Option.value (index_from s start "]") ~default:(String.length s) in
          let rec names i acc =
            match index_from s i "\"name\"" with
            | Some j when j < stop -> (
                match index_from s (j + 6) "\"" with
                | Some q0 -> (
                    match index_from s (q0 + 1) "\"" with
                    | Some q1 -> names q1 (String.sub s (q0 + 1) (q1 - q0 - 1) :: acc)
                    | None -> List.rev acc)
                | None -> List.rev acc)
            | _ -> List.rev acc
          in
          names start [])

(* The git commit when the checkout is a repository, else "unknown". *)
let revision () =
  let head =
    match read ".git/HEAD" with
    | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
        read (".git/" ^ String.trim (String.sub h 5 (String.length h - 5)))
    | h -> h
  in
  match head with Some rev -> String.trim rev | None -> "unknown"
