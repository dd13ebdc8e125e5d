(* perfbench: one workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Prints run metadata on stderr and, as the last line of stdout, one
   JSON object: correct, attempted, failed, and the metrics (the
   end-to-end ones untraced, the per-layer ones traced). The metric
   names must match BENCHMARK.json; a run whose names drift from it
   fails. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload search-mmap|routed-read --seed N \
     --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
    | "--trace" :: t :: rest -> trace := int_of_string t; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !workload = "" || !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let workloads =
  [
    ("search-mmap", Wl_mmap.run);
    ("routed-read", Wl_routed.run);
  ]

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--build-mmap"; seed; path; out; answers; trace ] ->
      Wl_mmap.build_child ~seed:(int_of_string seed) ~path ~out
        ~answers:(bool_of_string answers) ~trace:(bool_of_string trace);
      exit 0
  | [ _; "--spin" ] ->
      Proc.spin ();
      exit 0
  | _ -> ());
  let workload, seed, seconds, trace = args () in
  (* Dying on a signal skips at_exit; exiting runs it, which reaps the
     server processes. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let run =
    match List.assoc_opt workload workloads with Some r -> r | None -> usage ()
  in
  let root = ".perfbench_work" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir =
    Filename.concat root
      (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Proc.exe :=
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "main.exe");
  let spans = Spans.create () in
  let env = { Run.workload; seed; seconds; trace; dir; spans } in
  (* at_exit, so that a run stopped by a signal cleans up too. *)
  at_exit (fun () ->
      Proc.reap_all ();
      Run.rm_rf dir);
  let outcome = run env in
  if trace then
    Spans.write spans
      (Filename.concat root (Printf.sprintf "spans-%s-%d.tsv" workload seed));
  let expected =
    Bench_file.metric_names (if trace then "per_layer" else "end_to_end")
  in
  let names = List.map (fun m -> m.Summary.name) outcome.Run.metrics in
  let consistent = List.sort compare names = List.sort compare expected in
  if not consistent then
    Printf.eprintf "perfbench: metrics %s differ from BENCHMARK.json's %s\n"
      (String.concat "," names) (String.concat "," expected);
  let finite =
    List.for_all (fun m -> Float.is_finite m.Summary.value) outcome.Run.metrics
  in
  if not finite then prerr_endline "perfbench: a metric is not a finite number";
  let meta =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("rev", Bench_file.revision ());
    ]
    @ outcome.Run.meta
  in
  List.iter (fun (k, v) -> Printf.eprintf "meta %s: %s\n" k v) meta;
  List.iter
    (fun m ->
      Printf.printf "%s %.6g %s\n" m.Summary.name m.Summary.value m.Summary.unit_)
    outcome.Run.metrics;
  print_endline
    (Summary.result_line
       ~correct:(outcome.Run.correct && consistent && finite)
       ~attempted:outcome.Run.attempted ~failed:outcome.Run.failed
       outcome.Run.metrics)
