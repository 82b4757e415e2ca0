(* The served side: [wdmnet serve] processes, the closed-loop load
   generator, and the post-run checks that read state back over the wire.

   The load generator is this process's only thread and holds one
   connection.  Servers run as their own processes on unix sockets with
   relative paths (short enough for sun_path wherever the checkout is). *)

module Server = Wdm_server.Server
module Client = Wdm_server.Client
module Resp = Wdm_persist.Resp
module Op = Wdm_persist.Op
module Store = Wdm_persist.Store
module J = Wdm_telemetry.Json
module Histogram = Wdm_telemetry.Histogram

(* ---- processes ------------------------------------------------------ *)

type proc = {
  pid : int;
  label : string;
  out : Unix.file_descr;  (** the child's stdout, read for its ready line *)
  mutable reaped : bool;
}

let live : proc list ref = ref []

let spawn ~log exe args =
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null w err in
  List.iter Unix.close [ w; err; null ];
  let p = { pid; label = Filename.basename log; out; reaped = false } in
  live := p :: !live;
  p

let forget p =
  p.reaped <- true;
  (try Unix.close p.out with Unix.Unix_error _ -> ());
  live := List.filter (fun q -> q != p) !live

let reap p =
  if not p.reaped then begin
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    forget p
  end

let exited p =
  p.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ ->
    forget p;
    true
  | exception Unix.Unix_error _ -> true

let signal p s = if not p.reaped then try Unix.kill p.pid s with Unix.Unix_error _ -> ()

let kill9 p =
  signal p Sys.sigkill;
  reap p

(* SIGTERM, up to 10 s of grace, then SIGKILL; always reaped. *)
let stop p =
  signal p Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (exited p)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  if not p.reaped then kill9 p

let stop_all () = List.iter kill9 !live

(* Peak resident set of a live process, in MB ([VmHWM]). *)
let peak_rss_mb p =
  let ic = open_in (Printf.sprintf "/proc/%d/status" p.pid) in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- readiness ------------------------------------------------------ *)

let fail fmt = Printf.ksprintf failwith fmt

let client_or_fail addr =
  match Client.connect ~deadline:60. addr with
  | Ok c -> c
  | Error e -> fail "connect: %s" (Client.error_to_string e)

(* Blocks until the process prints its "serving on" line — no polling,
   so the wait steals no CPU from a start-up it is timing — then asks for
   the state digest: the first answered request. *)
let start_timeout = 120.

let first_answer p addr =
  let deadline = Unix.gettimeofday () +. start_timeout in
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec await () =
    let text = Buffer.contents buf in
    let ready =
      List.exists
        (fun l -> String.length l >= 10 && String.sub l 0 10 = "serving on")
        (String.split_on_char '\n' text)
    in
    if not ready then begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then fail "%s never became ready" p.label;
      match Unix.select [ p.out ] [] [] left with
      | [], _, _ -> await ()
      | _ ->
        let k = Unix.read p.out chunk 0 (Bytes.length chunk) in
        if k = 0 then fail "%s exited before serving" p.label;
        Buffer.add_subbytes buf chunk 0 k;
        await ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
    end
  in
  await ();
  match Client.connect ~deadline:60. addr with
  | Error e -> fail "%s: connect: %s" p.label (Client.error_to_string e)
  | Ok c -> (
    let r = Client.digest c in
    Client.close c;
    match r with
    | Ok d -> d
    | Error e -> fail "%s: digest: %s" p.label (Client.error_to_string e))

let stats c =
  match Client.stats_json c with
  | Error e -> fail "stats: %s" (Client.error_to_string e)
  | Ok s -> (
    match J.parse s with Ok j -> j | Error e -> fail "stats json: %s" e)

let stats_int j name = match J.member name j with Some (J.Int i) -> i | _ -> 0

(* A follower has subscribed once it reports the leader generation it
   synced to. *)
let wait_subscribed p addr =
  ignore (first_answer p addr);
  let deadline = Unix.gettimeofday () +. start_timeout in
  let c = client_or_fail addr in
  let rec loop () =
    if exited p then fail "%s exited before subscribing" p.label;
    if Unix.gettimeofday () > deadline then fail "%s never subscribed" p.label;
    if stats_int (stats c) "epoch" = 0 then begin
      Unix.sleepf 0.0005;
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Client.close c) loop

(* ---- clusters ------------------------------------------------------- *)

type cluster = {
  leader : proc;
  lead_addr : Server.address;
  lead_wal : string;
  follower : (proc * Server.address) option;
}

(* Spawns the workload's leader (and follower) in [dir] and returns with
   the time from the first spawn to the first answered request — for a
   replicated cluster, to the follower's subscription. *)
let setup ~wdmnet ~dir (w : Workload.t) =
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let lead_wal = path "lead.wal" in
  let lead_addr = Server.Unix_socket (path "lead.sock") in
  let t0 = Tracer.now_ns () in
  let leader =
    spawn ~log:(path "lead.log") wdmnet
      ([ "serve"; "--listen"; "unix:" ^ path "lead.sock" ]
      @ Workload.serve_args w
      @ if w.wal then [ "--wal"; lead_wal ] else [])
  in
  ignore (first_answer leader lead_addr);
  let follower =
    if not w.follower then None
    else begin
      let addr = Server.Unix_socket (path "fol.sock") in
      let p =
        spawn ~log:(path "fol.log") wdmnet
          ([ "serve"; "--listen"; "unix:" ^ path "fol.sock"; "--follower";
             "unix:" ^ path "lead.sock"; "--wal"; path "fol.wal" ]
          @ Workload.serve_args w)
      in
      wait_subscribed p addr;
      Some (p, addr)
    end
  in
  let dt = Tracer.seconds_of_ns (Tracer.now_ns () - t0) in
  ({ leader; lead_addr; lead_wal; follower }, dt)

let teardown cl =
  Option.iter (fun (p, _) -> stop p) cl.follower;
  stop cl.leader

(* ---- the closed loop ------------------------------------------------ *)

type pass = {
  sent : int;  (** ops sent *)
  connects : int;
  refused : int;
  failed : int;  (** transport/protocol errors, [Server_error], divergent replies *)
  error : string option;
  wall_s : float;
  rtt_us : float array;  (** one sample per round trip *)
  done_s : float array;  (** when each round trip completed, from the start *)
}

let ok_reply op reply =
  match (op, reply) with
  | Op.Connect _, Resp.Admitted _ -> `Ok
  | Op.Connect _, Resp.Refused _ -> `Refused
  | Op.Disconnect _, Resp.Released _ -> `Ok
  | _ -> `Failed

(* Replays [ops] in round trips of [batch] ops (one [Batch] frame each
   when [batch > 1]).  Requests are built before the clock starts. *)
let replay ?(tracer = Tracer.off ()) c ~batch (ops : Op.t array) =
  let n = Array.length ops in
  let frames = (n + batch - 1) / batch in
  let reqs =
    Array.init frames (fun f ->
        let lo = f * batch in
        List.init (min batch (n - lo)) (fun j -> Resp.Admit ops.(lo + j)))
  in
  let span_name = Tracer.name_id tracer (if batch = 1 then "client.request" else "client.batch") in
  let rtt = Array.make frames 0 and done_ns = Array.make frames 0 in
  let connects = ref 0 and refused = ref 0 and failed = ref 0 in
  let error = ref None and sent = ref 0 in
  let tally lo replies =
    List.iteri
      (fun j reply ->
        match ok_reply ops.(lo + j) reply with
        | `Ok -> ()
        | `Refused -> incr refused
        | `Failed -> incr failed)
      replies
  in
  Array.iter (function Op.Connect _ -> incr connects | _ -> ()) ops;
  let t_start = Tracer.now_ns () in
  let f = ref 0 in
  while !f < frames && !error = None do
    let lo = !f * batch in
    let sp = Tracer.enter tracer span_name !f in
    let t0 = Tracer.now_ns () in
    let reply =
      match reqs.(!f) with
      | [ r ] -> Result.map (fun x -> [ x ]) (Client.request c r)
      | rs -> Client.request_batch c rs
    in
    let t1 = Tracer.now_ns () in
    rtt.(!f) <- t1 - t0;
    done_ns.(!f) <- t1 - t_start;
    Tracer.leave tracer sp;
    (match reply with
    | Ok replies ->
      sent := !sent + List.length replies;
      tally lo replies
    | Error e ->
      error := Some (Client.error_to_string e);
      failed := !failed + (n - lo));
    incr f
  done;
  let wall = Tracer.now_ns () - t_start in
  {
    sent = !sent;
    connects = !connects;
    refused = !refused;
    failed = !failed;
    error = !error;
    wall_s = Tracer.seconds_of_ns wall;
    rtt_us = Array.map Tracer.us_of_ns (Array.sub rtt 0 !f);
    done_s = Array.map Tracer.seconds_of_ns (Array.sub done_ns 0 !f);
  }

let digest c =
  match Client.digest c with
  | Ok d -> d
  | Error e -> fail "digest: %s" (Client.error_to_string e)

(* After the last reply: how far the follower is behind, how long until
   it has applied everything, and its digest then. *)
type follower_check = { lag_ops : int; catchup_ms : float; follower_digest : int }

let check_follower ~leader_client (fp, faddr) =
  let t0 = Tracer.now_ns () in
  let target = stats_int (stats leader_client) "applied" in
  let fc = client_or_fail faddr in
  Fun.protect
    ~finally:(fun () -> Client.close fc)
    (fun () ->
      let lag_ops = target - stats_int (stats fc) "applied" in
      let deadline = Unix.gettimeofday () +. 60. in
      while stats_int (stats fc) "applied" < target do
        if exited fp then fail "follower exited while catching up";
        if Unix.gettimeofday () > deadline then fail "follower never caught up";
        Unix.sleepf 0.0002
      done;
      let catchup_ms = float_of_int (Tracer.now_ns () - t0) *. 1e-6 in
      { lag_ops; catchup_ms; follower_digest = digest fc })

(* Stage p50s (µs) from the server's own histograms: the upper bound of
   the bucket holding the median, as coarse as the buckets are. *)
let stage_p50_us j stage =
  let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> 0. in
  let h =
    match J.member "histograms" j with
    | Some (J.Obj kvs) -> List.assoc_opt (Printf.sprintf "server_stage_%s_seconds" stage) kvs
    | _ -> None
  in
  match h with
  | None -> 0.
  | Some h -> (
    let floats f =
      match J.member f h with
      | Some (J.List l) -> Array.of_list (List.map num l)
      | _ -> [||]
    in
    let snap =
      {
        Histogram.bounds = floats "bounds";
        cumulative = Array.map int_of_float (floats "cumulative");
        sum = (match J.member "sum" h with Some v -> num v | None -> 0.);
        count = (match J.member "count" h with Some (J.Int c) -> c | _ -> 0);
      }
    in
    match Histogram.quantile snap 0.5 with Some s -> s *. 1e6 | None -> 0.)

(* ---- recovery ------------------------------------------------------- *)

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let k = input ic buf 0 65536 in
        if k > 0 then begin
          output oc buf 0 k;
          go ()
        end
      in
      go ())

(* The WAL and its snapshot files, as [Store] names them. *)
let wal_files wal =
  let dir = Filename.dirname wal and base = Filename.basename wal in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         f = base
         || String.length f > String.length base + 6
            && String.sub f 0 (String.length base + 6) = base ^ ".snap.")

(* Restarts a served leader on a private copy (in [dir]) of [wal] and its
   snapshots, timed from spawn to the first answered request, which must
   reproduce [expect].  Returns the restart time in seconds. *)
let restart ~self ~dir ~wal ~expect =
  Unix.mkdir dir 0o755;
  List.iter
    (fun f -> copy_file (Filename.concat (Filename.dirname wal) f) (Filename.concat dir f))
    (wal_files wal);
  let sock = Filename.concat dir "rec.sock" in
  let t0 = Tracer.now_ns () in
  let p =
    spawn ~log:(Filename.concat dir "rec.log") self
      [ "resume-serve"; "--wal"; Filename.concat dir (Filename.basename wal); "--listen"; sock ]
  in
  let got = first_answer p (Server.Unix_socket sock) in
  let dt = Tracer.seconds_of_ns (Tracer.now_ns () - t0) in
  kill9 p;
  if got <> expect then Error (Printf.sprintf "recovered digest %d, expected %d" got expect)
  else Ok dt

(* Writes what a [--wal] leader would have journalled for [ops]: snapshot
   0 of the empty network plus one record per op. *)
let write_wal ~wal engine ops =
  let store = Store.start_backend ~wal (Workload.fresh_backend engine) in
  Array.iter (Store.log store) ops;
  Store.close store

(* The [resume-serve] process: recover a leader's WAL the way a
   restarting service does ([Store.resume_backend]: newest snapshot, tail
   replay, continue the same WAL) and serve it until SIGTERM. *)
let resume_serve ~wal ~listen =
  match Store.resume_backend ~wal () with
  | Error e ->
    Format.eprintf "resume-serve: %a@." Store.pp_recovery_error e;
    exit 1
  | Ok (store, r) ->
    let srv =
      Server.start_backend ~telemetry:(Wdm_telemetry.Sink.create ()) ~store
        ~backend:r.Store.backend (Server.Unix_socket listen)
    in
    print_endline ("serving on unix:" ^ listen);
    let stop = ref false in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true)))
      [ Sys.sigint; Sys.sigterm ];
    while not !stop do
      Thread.delay 0.05
    done;
    Server.stop srv;
    Store.close store
