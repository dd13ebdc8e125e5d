(* The load generator: binary pipelined protocol over at most [nproc]
   connections, driven by one thread.

   Open loop: every request has a due time fixed before the run starts
   (a constant rate). The single thread sends whatever is due,
   round-robin over the connections, and in between waits in [select]
   for responses or for the next due time. Latency runs from the due
   time to the response, so a stall in the server (or in the
   generator) is charged to every request that waited behind it — the
   coordinated-omission correction. How late each send left against
   its due time is recorded as well: when the generator itself falls
   behind, the run is invalid. *)

module Frame = Pj_frame.Frame

let now = Pj_util.Timing.monotonic_now

type conn = { fd : Unix.file_descr; mutable pending : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; pending = "" }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send c ~id payload =
  let frame = Frame.to_string { Frame.kind = Frame.Request; id; payload } in
  write_all c.fd frame 0 (String.length frame)

let chunk = Bytes.create 65536

(* Read what the socket holds and return every complete frame in it. *)
let receive c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "perfbench: server closed the connection";
  c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
  let pos = ref 0 in
  let rec frames acc =
    match Frame.decode c.pending ~pos with
    | Ok f -> frames (f :: acc)
    | Error (Frame.Truncated _) -> List.rev acc
    | Error (Frame.Corrupt m) -> failwith ("perfbench: corrupt frame: " ^ m)
    | Error (Frame.Oversized n) -> failwith (Printf.sprintf "perfbench: oversized frame %d" n)
  in
  let fs = frames [] in
  c.pending <- String.sub c.pending !pos (String.length c.pending - !pos);
  fs

(* One request, one response: the probe path (round trips, oracle
   checks after traffic). Frames left over from an open loop (a late
   side request) carry other ids and are skipped. *)
let call_id = 1 lsl 30

let call c payload =
  send c ~id:call_id payload;
  let rec wait = function
    | f :: _ when f.Frame.id = call_id -> f.Frame.payload
    | _ :: rest -> wait rest
    | [] -> wait (receive c)
  in
  wait []

let timed_call c payload =
  let t0 = now () in
  let r = call c payload in
  (r, now () -. t0)

type sample = {
  index : int;  (** position in the schedule *)
  due : float;
  sent : float;
  mutable answered : float;  (** [nan] while unanswered *)
  mutable response : string;
}

type side = {
  every : float;  (** seconds between side requests; [infinity] for none *)
  line : string;
  on_side : string -> unit;
}
(** A side channel multiplexed on connection 0 (STATS polling): not
    part of the load, not timed. *)

let no_side = { every = infinity; line = ""; on_side = ignore }

(* Run [n] requests due [1 / rate] apart, starting now. [payload i] is
   asked for request [i]'s line at its send time (so a DELDOC can name
   an id acknowledged earlier); [on_response i line] sees each answer,
   after its sample is filled in ([expose] hands out the sample array
   being filled).
   Requests unanswered [grace] seconds after the last due time stay
   unanswered. *)
let open_loop conns ~rate ~n ?(side = no_side) ?(grace = 10.)
    ?(expose = ignore) ~payload ~on_response () =
  let conns = Array.of_list conns in
  let nc = Array.length conns in
  let t0 = now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let samples = Array.make n None in
  expose samples;
  let next = ref 0 and answered = ref 0 in
  let side_id = n in
  let next_side = ref (t0 +. side.every) in
  let stop_at = due (n - 1) +. grace in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let conn_of_fd fd =
    let rec go i = if conns.(i).fd = fd then conns.(i) else go (i + 1) in
    go 0
  in
  while !answered < n && now () < stop_at do
    let t = now () in
    while !next < n && due !next <= t do
      let i = !next in
      let line = payload i in
      let sent = now () in
      send conns.(i mod nc) ~id:i line;
      samples.(i) <-
        Some { index = i; due = due i; sent; answered = nan; response = "" };
      incr next
    done;
    if t >= !next_side && !next < n then begin
      send conns.(0) ~id:side_id side.line;
      next_side := !next_side +. side.every
    end;
    let wake = if !next < n then Float.min (due !next) !next_side else stop_at in
    let timeout = Float.max 0. (wake -. now ()) in
    let ready, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let at = now () in
        List.iter
          (fun f ->
            let id = f.Frame.id in
            if id = side_id then side.on_side f.Frame.payload
            else
              match samples.(id) with
              | Some s when Float.is_nan s.answered ->
                  s.answered <- at;
                  s.response <- f.Frame.payload;
                  incr answered;
                  on_response id f.Frame.payload
              | _ -> failwith "perfbench: response to an unknown request")
          (receive (conn_of_fd fd)))
      ready
  done;
  Array.map
    (function
      | Some s -> s
      | None -> { index = -1; due = nan; sent = nan; answered = nan; response = "" })
    samples

(* Closed loop: [depth] requests in flight on every connection, each
   answer sending the next on its connection, for [seconds]. Requests
   still in flight then are waited for. Samples come back in send
   order, with [due = sent]. *)
let closed_loop conns ~depth ~seconds ~payload =
  let conns = Array.of_list conns in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let sent = Hashtbl.create 1024 in
  let samples = ref [] and next = ref 0 in
  let stop_at = now () +. seconds in
  let send_next c =
    let i = !next in
    incr next;
    let line = payload i in
    Hashtbl.replace sent i (now ());
    send c ~id:i line
  in
  Array.iter (fun c -> for _ = 1 to depth do send_next c done) conns;
  while Hashtbl.length sent > 0 do
    match Unix.select fds [] [] 10. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "perfbench: no answer for 10 s in a closed loop"
    | ready, _, _ ->
      List.iter
        (fun fd ->
          let c = Array.find_opt (fun c -> c.fd = fd) conns |> Option.get in
          List.iter
            (fun f ->
              let at = now () and i = f.Frame.id in
              let t = Hashtbl.find sent i in
              Hashtbl.remove sent i;
              samples :=
                { index = i; due = t; sent = t; answered = at; response = f.Frame.payload }
                :: !samples;
              if at < stop_at then send_next c)
            (receive c))
        ready
  done;
  let a = Array.of_list !samples in
  Array.sort (fun x y -> compare x.index y.index) a;
  a

let latency s = s.answered -. s.due
let lateness s = s.sent -. s.due
let is_answered s = not (Float.is_nan s.answered)
