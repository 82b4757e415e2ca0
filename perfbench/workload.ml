(* The named workloads, their seeded op traces, and the in-process
   twin that every served run is checked against.

   A trace is a pure function of (workload, seed, seconds): its length is
   [seconds] times the workload's nominal rate, so every count in a run
   (ops, connects, refusals) is fixed by the seed and a faster program
   simply finishes the same work sooner. *)

open Wdm_core
module Network = Wdm_multistage.Network
module Topology = Wdm_multistage.Topology
module Conditions = Wdm_multistage.Conditions
module Mesh = Wdm_mesh.Mesh_network
module Op = Wdm_persist.Op
module Backend = Wdm_persist.Backend
module Resp = Wdm_persist.Resp
module Crc32 = Wdm_persist.Crc32
module Churn = Wdm_traffic.Churn
module Fanout = Wdm_traffic.Fanout

type engine =
  | Fabric of { n : int; r : int; k : int; m : int }
  | Mesh_topo of { topo : string; k : int; erlangs : float }

type t = {
  name : string;
  engine : engine;
  batch : int;  (** ops per round trip; 1 is one request outstanding *)
  wal : bool;  (** the leader journals to [--wal] (flush per record) *)
  follower : bool;  (** one [--follower --wal] process subscribes *)
  ops_per_s : int;  (** nominal rate: trace length = seconds x this *)
}

(* The MSW-dominant fabric at N = 1024: n = r = 32, k = 2, and m from
   Theorem 1, so no request may ever be refused. *)
let theorem_m = (Conditions.msw_dominant ~n:32 ~r:32).Conditions.m_min
let seq_fabric = Fabric { n = 32; r = 32; k = 2; m = theorem_m }

(* The same shape at m = n, the smallest middle stage Topology accepts:
   about a quarter of all connects are refused. *)
let small_fabric = Fabric { n = 32; r = 32; k = 2; m = 32 }
let nsf14 = Mesh_topo { topo = "nsf14"; k = 8; erlangs = 40. }

let all =
  [
    {
      name = "fabric-seq";
      engine = seq_fabric;
      batch = 1;
      wal = true;
      follower = false;
      ops_per_s = 20_000;
    };
    {
      name = "fabric-batch";
      engine = small_fabric;
      batch = 64;
      wal = false;
      follower = false;
      ops_per_s = 55_000;
    };
    {
      name = "mesh-batch";
      engine = nsf14;
      batch = 64;
      wal = false;
      follower = false;
      ops_per_s = 55_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [wdmnet serve] flags selecting the workload's network. *)
let serve_args w =
  match w.engine with
  | Fabric { n; r; k; m } ->
    [ "--n-local"; string_of_int n; "-r"; string_of_int r; "-k";
      string_of_int k; "-m"; string_of_int m; "--model"; "MSW" ]
  | Mesh_topo { topo; k; _ } -> [ "--mesh"; topo; "-k"; string_of_int k ]

(* A fresh, empty instance of the network [wdmnet serve] builds from
   [serve_args]: same topology, construction, model and strategy. *)
let fresh_backend ?telemetry engine =
  match engine with
  | Fabric { n; r; k; m } ->
    Backend.Net
      (Network.create
         ~config:{ Network.Config.default with telemetry }
         ~construction:Network.Msw_dominant ~output_model:Model.MSW
         (Topology.make_exn ~n ~m ~r ~k))
  | Mesh_topo { topo; k; _ } -> (
    match Mesh.create ?telemetry ~config:{ Mesh.Config.default with k } topo with
    | Ok mesh -> Backend.Mesh mesh
    | Error e -> failwith ("mesh topology: " ^ e))

(* ---- traces --------------------------------------------------------- *)

type shape = {
  ops : int;
  connects : int;
  refused : int;  (** refusals met while recording, for the record *)
  mean_fanout : float;
  max_fanout : int;
  peak_active : int;
  erlangs : float option;
  fingerprint : int;  (** CRC32 of the ops' concatenated [Op.encode] bytes *)
}

(* What an in-process twin reads after applying a trace. *)
type twin = { digest : int; twin_refused : int }

(* [recorded] is the recording network's own end state: the twin of the
   whole trace, at no extra cost. *)
type trace = { ops : Op.t array; shape : shape; recorded : twin }

let fingerprint ops =
  let buf = Buffer.create 512 in
  Array.fold_left
    (fun crc op ->
      Buffer.clear buf;
      Op.encode buf op;
      Crc32.update crc (Buffer.contents buf) ~pos:0 ~len:(Buffer.length buf))
    0 ops

let churn_epoch = 20_000

(* Runs the generator against a scratch network, recording every request
   it makes; teardown ids are the ones the network really issued, and a
   fresh network fed the same ops reissues them (DESIGN.md §6). *)
let record engine ~seed ~ops:target =
  let backend = fresh_backend engine in
  let ops = ref [] and count = ref 0 and peak = ref 0 and refused = ref 0 in
  let active = Hashtbl.create 4096 in
  let connect c =
    ops := Op.Connect c :: !ops;
    incr count;
    let admitted =
      match backend with
      | Backend.Net net -> (
        match Network.connect net c with
        | Ok r -> Ok r.Network.id
        | Error _ -> Error ())
      | Backend.Mesh mesh -> (
        match Mesh.connect mesh c with Ok r -> Ok r.Mesh.id | Error _ -> Error ())
    in
    (match admitted with
    | Ok id ->
      Hashtbl.replace active id ();
      peak := max !peak (Hashtbl.length active)
    | Error () -> incr refused);
    admitted
  in
  let disconnect id =
    ops := Op.Disconnect id :: !ops;
    incr count;
    Hashtbl.remove active id;
    match Backend.apply backend (Op.Disconnect id) with
    | Ok () -> ()
    | Error e -> failwith ("trace recorder: " ^ e)
  in
  let sut = { Churn.connect; disconnect } in
  let erlangs =
    match engine with
    | Fabric { n; r; k; _ } ->
      (* epochs of the bench's 20k-step churn, drained to an idle fabric
         between epochs, so the shape does not drift with the trace's
         length; the last epoch leaves its routes up *)
      let spec = Network_spec.make_exn ~n:(n * r) ~k in
      let epoch = ref 0 in
      while !count < target do
        if !epoch > 0 then
          Hashtbl.fold (fun id () acc -> id :: acc) active []
          |> List.sort compare |> List.iter disconnect;
        let steps = min churn_epoch (target - !count) in
        ignore
          (Churn.run (Random.State.make [| seed; !epoch |]) ~spec ~model:Model.MSW
             ~fanout:(Fanout.Zipf { max = 64; s = 1.3 })
             ~steps ~teardown_bias:0.35 sut);
        incr epoch
      done;
      None
    | Mesh_topo { erlangs; _ } ->
      (* an arrival is one connect plus, when admitted, one teardown *)
      let arrivals = max 1 (target * 100 / 173) in
      let nodes =
        match backend with
        | Backend.Mesh mesh -> Wdm_mesh.Graph.n (Mesh.graph mesh)
        | Backend.Net _ -> assert false
      in
      ignore
        (Wdm_traffic.Erlang.run (Random.State.make [| seed |]) ~nodes
           ~fanout:(Fanout.Zipf { max = 4; s = 1.3 })
           ~offered:erlangs ~arrivals sut);
      Some erlangs
  in
  let ops = Array.of_list (List.rev !ops) in
  let connects = ref 0 and fan_sum = ref 0 and fan_max = ref 0 in
  Array.iter
    (function
      | Op.Connect c ->
        incr connects;
        let f = Connection.fanout c in
        fan_sum := !fan_sum + f;
        fan_max := max !fan_max f
      | _ -> ())
    ops;
  {
    ops;
    recorded = { digest = Backend.digest backend; twin_refused = !refused };
    shape =
      {
        ops = Array.length ops;
        connects = !connects;
        refused = !refused;
        mean_fanout = float_of_int !fan_sum /. float_of_int (max 1 !connects);
        max_fanout = !fan_max;
        peak_active = !peak;
        erlangs;
        fingerprint = fingerprint ops;
      };
  }

let generate w ~seed ~seconds =
  record w.engine ~seed ~ops:(max 64 (int_of_float (seconds *. float_of_int w.ops_per_s)))

let shape_json (s : shape) =
  let module J = Wdm_telemetry.Json in
  J.Obj
    ([
       ("ops", J.Int s.ops);
       ("connect_share", J.Float (float_of_int s.connects /. float_of_int (max 1 s.ops)));
       ("mean_fanout", J.Float s.mean_fanout);
       ("max_fanout", J.Int s.max_fanout);
       ("peak_active", J.Int s.peak_active);
       ("fingerprint", J.String (Printf.sprintf "%08x" s.fingerprint));
     ]
    @ match s.erlangs with Some e -> [ ("erlangs", J.Float e) ] | None -> [])

(* ---- the in-process twin ------------------------------------------- *)

(* Applies [ops] to a fresh network through [Resp.execute_backend], the
   function the server's admission loop answers with: the twin of a
   prefix of a trace, or of a deliberately damaged one. *)
let twin engine ops =
  let b = fresh_backend engine in
  let refused = ref 0 in
  Array.iter
    (fun op ->
      match Resp.execute_backend b (Resp.Admit op) with
      | Resp.Refused _ -> incr refused
      | _ -> ())
    ops;
  { digest = Backend.digest b; twin_refused = !refused }
