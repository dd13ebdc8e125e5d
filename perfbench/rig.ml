(* The probe rig for workloads without a routed tier: one `serve`
   backend over the workload's data (one-entry cache, one domain) and a
   one-leg `serve-router` in front of it. Traced runs only; the timed
   traffic never touches it. *)

open Run

let serve ?cpu env ~name args =
  let p = Proc.spawn ?cpu ("serve" :: args) ~log:(Filename.concat env.dir (name ^ ".log")) in
  (p, Proc.wait_port p)

let router env ~name ~cache ports =
  let backends =
    List.concat_map (fun p -> [ "--backend"; Printf.sprintf "127.0.0.1:%d" p ]) ports
  in
  let p =
    Proc.spawn
      ([ "serve-router"; "--port"; "0"; "--cache"; string_of_int cache ] @ backends)
      ~log:(Filename.concat env.dir (name ^ ".log"))
  in
  (p, Proc.wait_port p)

(* [args] name the backend's data ([--index FILE]). The backend's PING
   and cached-SEARCH ([cached_line]) round trips are measured too. *)
let one_leg env args ~fresh ~cached_line =
  let backend, bport =
    serve env ~name:"rig-backend"
      (args @ [ "--port"; "0"; "--cache"; "1"; "--domains"; "1" ])
  in
  let front, rport = router env ~name:"rig-router" ~cache:1024 [ bport ] in
  let rtts = Layers.server_rtts bport ~cached_line in
  let cluster = Layers.cluster_rtts ~router:rport ~backends:[ bport ] fresh in
  Proc.stop front;
  Proc.stop backend;
  rtts @ cluster
