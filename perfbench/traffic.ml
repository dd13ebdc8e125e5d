(* Open-loop traffic against a front server, shared by the serving
   workloads: [min 2 nproc] connections, one generator thread, STATS
   polled on the side every 100 ms for the queue length.

   In a traced run the schedule alternates one-second blocks with and
   without spans; each traced request gets a root span from its due
   time to its answer and a child from its send to its answer. The
   two kinds of block give the tracing overhead. *)

open Run

type t = {
  samples : Client.sample array;
  queue_lens : float array;
  traced : int -> bool;  (** whether request [i] fell in a traced block *)
}

let connections () = min 2 (Domain.recommended_domain_count ())

let run env ~port ~rate ~payload ~on_response =
  let n = int_of_float (rate *. env.seconds) in
  let conns = List.init (connections ()) (fun _ -> Client.connect port) in
  let queue_lens = ref [] in
  let side =
    {
      Client.every = 0.1;
      line = "STATS";
      on_side = (fun line -> queue_lens := stat line "queue_len" :: !queue_lens);
    }
  in
  let traced i = env.trace && int_of_float (float_of_int i /. rate) mod 2 = 1 in
  let roots = Hashtbl.create 64 in
  let payload i =
    if traced i then Hashtbl.replace roots i (Spans.reserve env.spans);
    payload i
  in
  let samples_ref = ref [||] in
  let on_response i line =
    on_response i line;
    match Hashtbl.find_opt roots i with
    | None -> ()
    | Some root ->
        let s = Option.get (!samples_ref).(i) in
        ignore
          (Spans.add env.spans ~name:"wire" ~parent:root ~request:i
             ~start:s.Client.sent ~stop:s.Client.answered ~words:0.);
        Spans.fill env.spans root ~name:"request" ~parent:(-1) ~request:i
          ~start:s.Client.due ~stop:s.Client.answered ~words:0.
  in
  let samples =
    Client.open_loop conns ~rate ~n ~side ~payload ~on_response
      ~expose:(fun a -> samples_ref := a)
      ()
  in
  List.iter Client.close conns;
  { samples; queue_lens = Array.of_list !queue_lens; traced }

(* Latencies (from due time) of the answered requests satisfying [p]. *)
let latencies t p =
  Array.to_list t.samples
  |> List.filter (fun s -> Client.is_answered s && p s)
  |> List.map Client.latency |> Array.of_list

let lateness t =
  Array.map Client.lateness (Array.of_list (List.filter (fun s -> s.Client.index >= 0) (Array.to_list t.samples)))

(* Traced requests' median latency over untraced ones', minus one. *)
let tracing_overhead t =
  let med p = Summary.median (latencies t p) in
  let traced = med (fun s -> t.traced s.Client.index)
  and plain = med (fun s -> not (t.traced s.Client.index)) in
  (traced /. plain) -. 1.

(* The generator fell behind: its median send left more than 1 ms
   late, or its p99 more than 100 ms. Scheduling jitter on a busy box
   stays well inside both; a generator that cannot keep its schedule
   does not. Such a run measures the generator, not the server. *)
let behind t =
  let late = lateness t in
  let p50 = ms (Summary.median late) and p99 = ms (Summary.percentile late 99.) in
  if p50 > 1. || p99 > 100. then begin
    Printf.eprintf "perfbench: generator fell behind (late p50 %.2f ms, p99 %.2f ms)\n" p50 p99;
    true
  end
  else false
