(* Server processes: `proxjoin serve` / `serve-router` children of the
   benchmark, started from the CLI built next to it and always reaped. *)

type t = { pid : int; log : string; mutable alive : bool }

let live : t list ref = ref []

let exe = ref "_build/default/bin/main.exe"

let reap t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ()
  end

let reap_all () = List.iter reap !live

(* Whatever happens, no child outlives the benchmark. *)
let () = at_exit reap_all

(* Servers run at a lower priority than the benchmark ([niceness] 5):
   the load generator shares the box with them, and a generator that
   waits for a CPU behind the servers it drives sends late. *)
let niceness = 5

(* [cpu] pins the process to that CPU, through taskset(1). *)
let spawn ?(prog = !exe) ?(nice = niceness) ?cpu args ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let prog, args =
    match cpu with
    | None -> (prog, args)
    | Some c -> ("taskset", "-c" :: string_of_int c :: prog :: args)
  in
  let argv = Array.of_list (prog :: args) in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          Unix.dup2 devnull Unix.stdin;
          Unix.dup2 fd Unix.stdout;
          Unix.dup2 fd Unix.stderr;
          ignore (Unix.nice nice);
          Unix.execvp prog argv
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close fd;
  Unix.close devnull;
  let t = { pid; log; alive = true } in
  live := t :: !live;
  t

let read_file path = Option.value (Bench_file.read path) ~default:""

(* The port from the " on 127.0.0.1:PORT " banner that serve and
   serve-router print once bound. *)
let wait_port ?(timeout = 120.) t =
  let needle = " on 127.0.0.1:" in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    let log = read_file t.log in
    match Bench_file.index_from log 0 needle with
    | Some i ->
        let start = i + String.length needle in
        let stop = ref start in
        while !stop < String.length log && log.[!stop] >= '0' && log.[!stop] <= '9' do
          incr stop
        done;
        int_of_string (String.sub log start (!stop - start))
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
        | 0, _ -> ()
        | _ ->
            t.alive <- false;
            failwith (Printf.sprintf "server exited before binding: %s" log));
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "server never bound: %s" log);
        Unix.sleepf 0.01;
        poll ()
  in
  poll ()

(* Peak resident set of a process, in MiB, from /proc (0 when the
   kernel does not say). *)
let status_kb pid key =
  let text = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match Bench_file.index_from text 0 (key ^ ":") with
  | None -> 0.
  | Some i ->
      let j = i + String.length key + 1 in
      let rest = String.sub text j (min 40 (String.length text - j)) in
      Scanf.sscanf rest " %d" (fun kb -> float_of_int kb)

let peak_rss_mb t = status_kb (string_of_int t.pid) "VmHWM" /. 1024.

let self_rss_mb () = status_kb "self" "VmRSS" /. 1024.

(* Graceful stop: SIGTERM drains and exits; SIGKILL after [grace]. *)
let stop ?(grace = 10.) t =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ -> reap t
      | _ -> t.alive <- false
      | exception Unix.Unix_error _ -> t.alive <- false
    in
    wait ()
  end;
  live := List.filter (fun p -> p != t) !live

(* On a virtual machine an idle vCPU goes back to the host, and waking
   it again costs the host's scheduling delay: milliseconds that land on
   whichever request does the waking, and that vary from minute to
   minute. One spinner per CPU at the lowest priority keeps the CPUs
   awake while taking time from nothing that is runnable; each is
   pinned to its CPU, so that no two share one. Only for
   workloads whose processes sleep between requests; an in-process
   closed loop never does. *)
let keep_awake () =
  for cpu = 0 to Domain.recommended_domain_count () - 1 do
    ignore
      (spawn ~prog:Sys.executable_name ~nice:19 ~cpu [ "--spin" ] ~log:"/dev/null")
  done

(* The spinner's loop: until its parent is gone. *)
let spin () =
  let parent = Unix.getppid () in
  while Unix.getppid () = parent do
    for i = 1 to 1_000_000 do
      ignore (Sys.opaque_identity i)
    done
  done
