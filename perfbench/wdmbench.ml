(* The repository benchmark: a served control plane under three named
   workloads, plus a traced, in-process layer ladder.

     wdmbench run --workload W --seed N --seconds S --trace 0|1 --wdmnet EXE
     wdmbench resume-serve --wal FILE --listen PATH
     wdmbench selftest --wdmnet EXE --spec BENCHMARK.json --fingerprints FILE

   [run] prints a summary and, as its last stdout line, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  Work files go to
   .perfbench/ under the current directory; reports, Chrome traces and
   self-time tables stay in .perfbench/reports/. *)

module J = Wdm_telemetry.Json
module Client = Wdm_server.Client
module Store = Wdm_persist.Store

let fail fmt = Printf.ksprintf failwith fmt

(* ---- metric names and units ----------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("admit_ratio", "ratio");
    ("recover_s", "s");
    ("server_rss_mb", "MB");
  ]

let stages = [ "decode"; "queue"; "execute"; "wal"; "replicate"; "respond" ]

let per_layer =
  List.concat
    [
      List.concat_map
        (fun e ->
          [
            (e ^ ".connect_us.p50", "us");
            (e ^ ".connect_us.p99", "us");
            (e ^ ".refused_us.p50", "us");
            (e ^ ".disconnect_us.p50", "us");
            (e ^ ".admit_ratio", "ratio");
          ])
        [ "network"; "mesh_network" ];
      List.concat_map
        (fun c -> [ ("resp." ^ c ^ "_us.op", "us"); ("resp." ^ c ^ "_us.batch64", "us") ])
        [ "encode_request"; "decode_request"; "encode"; "decode" ];
      [
        ("resp.request_bytes", "bytes");
        ("resp.response_bytes", "bytes");
        ("wal.append_us.p50", "us");
        ("wal.append_fsync_us.p50", "us");
        ("wal.append_fsync_us.p99", "us");
        ("wal.bytes_per_op", "bytes");
        ("store.snapshot_write_ms", "ms");
        ("backend.restore_ms", "ms");
        ("store.recover_ms", "ms");
        ("store.replay_ops_per_s", "1/s");
        ("client.request_us.p50", "us");
        ("client.request_us.p99", "us");
        ("client.batch_us.p50", "us");
        ("server.self_us.p50", "us");
      ];
      List.map (fun s -> ("server.stage." ^ s ^ ".p50_us", "us")) stages;
      [
        ("repl.lag_ops", "ops");
        ("repl.catchup_ms", "ms");
        ("repl.encode_us", "us");
        ("ladder.core_us", "us");
        ("ladder.wal_us", "us");
        ("ladder.codec_us", "us");
        ("ladder.socket_us", "us");
        ("trace.overhead_pct", "%");
      ];
    ]

(* ---- files ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- one run --------------------------------------------------------- *)

type run = {
  w : Workload.t;
  seed : int;
  wdmnet : string;
  self : string;
  work : string;
  mutable gates : (string * bool) list;
  mutable attempted : int;
  mutable failed : int;
}

let gate r name ok =
  r.gates <- (name, ok) :: r.gates;
  if not ok then prerr_endline ("perfbench: gate failed: " ^ name)

let correct r = List.for_all snd r.gates && r.failed = 0

let dir r name = Filename.concat r.work name

type served = {
  cluster : Served.cluster;
  setup_s : float;
  pass : Served.pass;
  digest : int;
  follower : Served.follower_check option;
  stats : J.t;  (** the leader's [Get_stats] after the replay *)
  rss_mb : float;
}

(* Replays a whole trace against a fresh cluster and checks everything
   that can be read back: the served digest and refusal count against the
   twin, Theorem 1 on the nonblocking fabric, the follower's digest. *)
let served_pass ?tracer ?batch ?(w_override : Workload.t option) r ~label
    (trace : Workload.trace) (twin : Workload.twin) =
  let w = Option.value ~default:r.w w_override in
  let batch = Option.value ~default:w.batch batch in
  let cl, setup_s = Served.setup ~wdmnet:r.wdmnet ~dir:(dir r label) w in
  let c = Served.client_or_fail cl.Served.lead_addr in
  let pass = Served.replay ?tracer c ~batch trace.ops in
  r.attempted <- r.attempted + Array.length trace.ops;
  r.failed <- r.failed + pass.Served.failed;
  Option.iter (fun e -> prerr_endline ("perfbench: " ^ label ^ ": " ^ e)) pass.Served.error;
  let digest = Served.digest c in
  gate r (label ^ ": served digest = twin digest") (digest = twin.Workload.digest);
  gate r (label ^ ": refusals = twin refusals") (pass.Served.refused = twin.Workload.twin_refused);
  if w.engine = Workload.seq_fabric then
    gate r (label ^ ": Theorem 1, no refusal") (pass.Served.refused = 0);
  let follower =
    Option.map
      (fun f ->
        let fc = Served.check_follower ~leader_client:c f in
        gate r (label ^ ": follower digest = leader digest") (fc.Served.follower_digest = digest);
        fc)
      cl.Served.follower
  in
  let stats = Served.stats c in
  let rss_mb = Served.peak_rss_mb cl.Served.leader in
  Client.close c;
  { cluster = cl; setup_s; pass; digest; follower; stats; rss_mb }

let reps = 10
let segments = 50

(* Per-segment wall times of one pass: [segments] runs of consecutive
   round trips, timed from the end of the previous one. *)
let segment_walls (pass : Served.pass) =
  let f = Array.length pass.Served.done_s in
  Array.init segments (fun k ->
      let lo = k * f / segments and hi = ((k + 1) * f / segments) - 1 in
      let t0 = if lo = 0 then 0. else pass.Served.done_s.(lo - 1) in
      if hi < lo then 0. else pass.Served.done_s.(hi) -. t0)

(* [f] over repetitions, element-wise: the same segment or round trip of
   the same trace, on a fresh server each time. *)
let across (rows : float array list) f =
  let n = Array.length (List.hd rows) in
  Array.init n (fun i -> f (Array.of_list (List.map (fun a -> a.(i)) rows)))

let vmin a = Array.fold_left min infinity a

let e2e r (trace : Workload.trace) twin =
  let w = r.w in
  (* a WAL-less workload restarts from the journal a [--wal] leader would
     have written for the same trace *)
  let journal =
    if w.wal then None
    else begin
      let wal = Filename.concat r.work "journal.wal" in
      Served.write_wal ~wal w.engine trace.ops;
      Some wal
    end
  in
  let runs =
    List.init reps (fun i ->
        let label = Printf.sprintf "rep%d" i in
        let sv = served_pass r ~label trace twin in
        let cl = sv.cluster in
        let wal =
          match journal with
          | Some wal ->
            Served.teardown cl;
            wal
          | None ->
            Option.iter (fun (p, _) -> Served.kill9 p) cl.Served.follower;
            Served.kill9 cl.Served.leader;
            cl.Served.lead_wal
        in
        (* restarts until half a second of them has been timed (at most
           three), so a workload with short restarts gets as many chances
           at its fastest as one with long restarts *)
        let rec restarts k spent best =
          if k = 3 || spent >= 0.5 then best
          else
            let d = Filename.concat (dir r label) (Printf.sprintf "restart%d" k) in
            match Served.restart ~self:r.self ~dir:d ~wal ~expect:sv.digest with
            | Error e ->
              gate r ("restart: " ^ e) false;
              nan
            | Ok dt -> restarts (k + 1) (spent +. dt) (min best dt)
        in
        (sv, restarts 0 0. infinity))
  in
  let col f = Array.of_list (List.map f runs) in
  let passes = List.map (fun (sv, _) -> sv.pass) runs in
  let pass = List.hd passes in
  let seg = List.map segment_walls passes in
  let rtts = List.map (fun p -> p.Served.rtt_us) passes in
  let sum = Array.fold_left ( +. ) 0. in
  let ops = float_of_int (Array.length trace.ops) in
  let metrics =
    [
      ("setup_s", Tracer.median (col (fun (sv, _) -> sv.setup_s)));
      ("throughput_rps", ops /. sum (across seg vmin));
      ("latency_p50_us", Tracer.median (across rtts vmin));
      ("latency_p99_us", Tracer.quantile (across rtts vmin) 0.99);
      ( "admit_ratio",
        float_of_int (pass.Served.connects - pass.Served.refused)
        /. float_of_int (max 1 pass.Served.connects) );
      ("recover_s", vmin (col snd));
      ("server_rss_mb", Tracer.median (col (fun (sv, _) -> sv.rss_mb)));
    ]
  in
  let info =
    [
      ("latency_samples", J.Int (Array.length pass.Served.rtt_us));
      ("recover_s_reps", J.List (List.map (fun (_, x) -> J.Float x) runs));
      ("setup_s_reps", J.List (List.map (fun (sv, _) -> J.Float sv.setup_s) runs));
      ("connects", J.Int pass.Served.connects);
      ("refused", J.Int pass.Served.refused);
      ( "blocked_ratio",
        J.Float (float_of_int pass.Served.refused /. float_of_int (max 1 pass.Served.connects)) );
      ("digest", J.Int (fst (List.hd runs)).digest);
    ]
  in
  (metrics, info, [])

(* The per-layer run.  Companion traces (same seed) stand in where the
   workload's own trace never takes a path: the other engine, and
   refusals on the nonblocking fabric. *)
let layers r (trace : Workload.trace) twin =
  let w = r.w in
  (* untraced, then traced, each on a fresh cluster *)
  let untraced = served_pass r ~label:"untraced" trace twin in
  Served.teardown untraced.cluster;
  let served = Tracer.create () in
  let traced = served_pass ~tracer:served r ~label:"traced" trace twin in
  Served.teardown traced.cluster;
  let untraced_s = untraced.pass.Served.wall_s and traced_s = traced.pass.Served.wall_s in
  let overhead = (traced_s -. untraced_s) /. untraced_s *. 100. in
  (* probes on a prefix: the round-trip shape and replication the
     workload itself does not exercise *)
  let n = Array.length trace.ops in
  let prefix k = { trace with Workload.ops = Array.sub trace.ops 0 (min n k) } in
  let p = prefix 16_000 in
  let p_twin = Workload.twin w.engine p.ops in
  let probe_pass ?tracer ~label ?w_override ~batch () =
    let sv = served_pass ?tracer ~batch ?w_override r ~label p p_twin in
    Served.teardown sv.cluster;
    sv.follower
  in
  let probe = Tracer.create () in
  ignore (probe_pass ~tracer:probe ~label:"probe-other" ~batch:(if w.batch = 1 then 64 else 1) ());
  let follower =
    match traced.follower with
    | Some f -> f
    | None -> (
      match
        probe_pass ~label:"probe-repl"
          ~w_override:{ w with wal = true; follower = true; batch = 1 }
          ~batch:1 ()
      with
      | Some f -> f
      | None -> fail "replication probe had no follower")
  in
  (* the in-process ladder *)
  let l = prefix 50_000 in
  let lad = Ladder.run ~dir:r.work ~fsync_ops:1000 w.engine l.ops in
  gate r "in-process recovery/restore reproduce the state" lad.Ladder.recovered_ok;
  let comp_ops e = (Workload.record e ~seed:r.seed ~ops:20_000).Workload.ops in
  let companions =
    List.map
      (fun (lane, e) -> (lane, Ladder.engine_only e (comp_ops e)))
      [ ("mesh", Workload.nsf14); ("fabric-m32", Workload.small_fabric) ]
  in
  let lanes =
    [ ("ladder", lad.Ladder.main); ("codec64", lad.Ladder.codec64); ("fsync", lad.Ladder.fsync);
      ("repl", lad.Ladder.repl); ("store", lad.Ladder.store); ("served", served);
      ("probe", probe) ]
    @ companions
  in
  (* a span's samples from the first lane that has any *)
  let samples name =
    match
      List.find_opt (fun a -> Array.length a > 0)
        (List.map (fun (_, tr) -> Tracer.durations_us tr name) lanes)
    with
    | Some a -> a
    | None -> fail "no samples for span %s" name
  in
  let q name p = Tracer.quantile (samples name) p in
  let mean name = Tracer.mean (samples name) in
  let engine_metrics e =
    (* the admit ratio of the lane that timed the admitted connects *)
    let lane =
      List.find (fun (_, tr) -> Tracer.count tr (e ^ ".connect") > 0) lanes |> snd
    in
    let a = Tracer.count lane (e ^ ".connect") and b = Tracer.count lane (e ^ ".refused") in
    [
      (e ^ ".connect_us.p50", q (e ^ ".connect") 0.5);
      (e ^ ".connect_us.p99", q (e ^ ".connect") 0.99);
      (e ^ ".refused_us.p50", q (e ^ ".refused") 0.5);
      (e ^ ".disconnect_us.p50", q (e ^ ".disconnect") 0.5);
      (e ^ ".admit_ratio", float_of_int a /. float_of_int (max 1 (a + b)));
    ]
  in
  let eng = Ladder.engine_prefix (Workload.fresh_backend w.engine) in
  let engine_spans = List.map (fun s -> eng ^ "." ^ s) [ "connect"; "refused"; "disconnect" ] in
  let codec_spans =
    [ "resp.encode_request"; "resp.decode_request"; "resp.encode"; "resp.decode" ]
  in
  let inproc_spans = engine_spans @ codec_spans @ if w.wal then [ "wal.append" ] else [] in
  let inproc_p50 = Tracer.median (Tracer.per_op_sum_us lad.Ladder.main inproc_spans) in
  let per_op spans =
    Array.fold_left ( +. ) 0. (Tracer.per_op_sum_us lad.Ladder.main spans)
    /. float_of_int (max 1 (Array.length l.ops))
  in
  let core = per_op engine_spans and codec = per_op codec_spans
  and wal = per_op [ "wal.append" ] in
  let rtt = samples "client.request" in
  let metrics =
    engine_metrics "network" @ engine_metrics "mesh_network"
    @ List.concat_map
        (fun c ->
          [ ("resp." ^ c ^ "_us.op", mean ("resp." ^ c));
            ("resp." ^ c ^ "_us.batch64", mean ("resp." ^ c ^ ".batch64")) ])
        [ "encode_request"; "decode_request"; "encode"; "decode" ]
    @ [
        ("resp.request_bytes", lad.Ladder.request_bytes);
        ("resp.response_bytes", lad.Ladder.response_bytes);
        ("wal.append_us.p50", q "wal.append" 0.5);
        ("wal.append_fsync_us.p50", q "wal.append_fsync" 0.5);
        ("wal.append_fsync_us.p99", q "wal.append_fsync" 0.99);
        ("wal.bytes_per_op", lad.Ladder.wal_bytes_per_op);
        ("store.snapshot_write_ms", q "store.snapshot_write" 0.5 *. 1e-3);
        ("backend.restore_ms", q "backend.restore" 0.5 *. 1e-3);
        ("store.recover_ms", q "store.recover" 0.5 *. 1e-3);
        ("store.replay_ops_per_s", lad.Ladder.replay_ops_per_s);
        ("client.request_us.p50", Tracer.quantile rtt 0.5);
        ("client.request_us.p99", Tracer.quantile rtt 0.99);
        ("client.batch_us.p50", q "client.batch" 0.5);
        ("server.self_us.p50", Tracer.quantile rtt 0.5 -. inproc_p50);
      ]
    @ List.map (fun s -> ("server.stage." ^ s ^ ".p50_us", Served.stage_p50_us traced.stats s)) stages
    @ [
        ("repl.lag_ops", float_of_int follower.Served.lag_ops);
        ("repl.catchup_ms", follower.Served.catchup_ms);
        ("repl.encode_us", mean "repl.encode");
        ("ladder.core_us", core);
        ("ladder.wal_us", wal);
        ("ladder.codec_us", codec);
        ("ladder.socket_us", Tracer.mean rtt -. (core +. codec +. if w.wal then wal else 0.));
        ("trace.overhead_pct", overhead);
      ]
  in
  let info =
    [
      ("ladder_ops", J.Int (Array.length l.ops));
      ("probe_ops", J.Int (Array.length p.ops));
      ("served_wall_s", J.Obj [ ("untraced", J.Float untraced_s); ("traced", J.Float traced_s) ]);
    ]
  in
  (metrics, info, lanes)

let run_one ~workload ~seed ~seconds ~trace ~wdmnet =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None -> fail "unknown workload %s" workload
  in
  let base = ".perfbench" in
  let reports = Filename.concat base "reports" in
  let work = Filename.concat base (Printf.sprintf "work-%d" (Unix.getpid ())) in
  mkdir_p reports;
  rm_rf work;
  mkdir_p work;
  let r =
    { w; seed; wdmnet; self = Sys.executable_name; work; gates = [];
      attempted = 0; failed = 0 }
  in
  let finish () =
    Served.stop_all ();
    rm_rf work
  in
  match
    (* [reps] passes over one trace fill the run *)
    let t = Workload.generate w ~seed ~seconds:(seconds /. float_of_int reps) in
    let twin = t.Workload.recorded in
    let metrics, info, lanes = (if trace then layers else e2e) r t twin in
    (t, metrics, info, lanes)
  with
  | exception e ->
    finish ();
    raise e
  | t, metrics, info, lanes ->
    finish ();
    let units = if trace then per_layer else end_to_end in
    let ok = correct r in
    let failed = if ok then 0 else max r.failed r.attempted in
    let stem =
      Filename.concat reports (Printf.sprintf "%s-seed%d-trace%d" w.name seed (Bool.to_int trace))
    in
    if lanes <> [] then begin
      write_file (stem ^ ".chrome.json") (Tracer.chrome lanes);
      write_file (stem ^ ".selftime.txt") (Tracer.self_time_table lanes);
      prerr_string (Tracer.self_time_table lanes)
    end;
    let metric_json =
      J.Obj
        (List.map
           (fun (name, unit) ->
             let v =
               match List.assoc_opt name metrics with
               | Some v -> v
               | None -> fail "metric %s was not measured" name
             in
             (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
           units)
    in
    let result =
      J.Obj
        [
          ("correct", J.Bool ok);
          ("attempted", J.Int (max 1 r.attempted));
          ("failed", J.Int failed);
          ("metrics", metric_json);
        ]
    in
    let report =
      J.Obj
        ([
           ("workload", J.String w.name);
           ("seed", J.Int seed);
           ("seconds", J.Float seconds);
           ("shape", Workload.shape_json t.Workload.shape);
           ("gates", J.Obj (List.rev_map (fun (g, ok) -> (g, J.Bool ok)) r.gates));
           ("result", result);
         ]
        @ info)
    in
    write_file (stem ^ ".json") (J.to_string report ^ "\n");
    let s = t.Workload.shape in
    Printf.printf
      "# %s seed=%d ops=%d fingerprint=%08x connect_share=%.4f mean_fanout=%.3f \
       max_fanout=%d peak_active=%d%s\n"
      w.name seed s.Workload.ops s.Workload.fingerprint
      (float_of_int s.Workload.connects /. float_of_int (max 1 s.Workload.ops))
      s.Workload.mean_fanout s.Workload.max_fanout s.Workload.peak_active
      (match s.Workload.erlangs with Some e -> Printf.sprintf " erlangs=%g" e | None -> "");
    List.iter
      (fun (k, v) -> Printf.printf "# %s=%s\n" k (J.to_string v))
      info;
    List.iter
      (fun (name, unit) ->
        Printf.printf "# %-32s %16.6g %s\n" name (List.assoc name metrics) unit)
      units;
    print_endline (J.to_string result);
    ok

(* ---- self-test ------------------------------------------------------- *)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with Error e -> fail "%s: %s" path e | Ok j -> j

let spec_metrics path key =
  match read_json path with
  | j -> (
    match J.member key j with
    | Some (J.List l) ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> fail "%s: malformed %s entry" path key)
        l
    | _ -> fail "%s: no %s list" path key)

(* The traffic a benchmark run replays is pinned by fingerprint: seed 1 at
   BENCHMARK.json's run_seconds, per workload. *)
let same_traffic ~spec ~fingerprints =
  let seconds =
    match J.member "run_seconds" (read_json spec) with
    | Some (J.Int s) -> float_of_int s
    | _ -> fail "%s: no run_seconds" spec
  in
  let refs = read_json fingerprints in
  List.for_all Fun.id
  @@ List.map
    (fun (w : Workload.t) ->
      let s = (Workload.generate w ~seed:1 ~seconds:(seconds /. float_of_int reps)).Workload.shape in
      let got = Printf.sprintf "%08x" s.Workload.fingerprint in
      match J.member w.name refs with
      | Some r
        when J.member "fingerprint" r = Some (J.String got)
             && J.member "ops" r = Some (J.Int s.Workload.ops) ->
        true
      | _ ->
        Printf.printf "selftest: %s seed 1 generates ops=%d fingerprint=%s\n" w.name s.Workload.ops got;
        false)
    Workload.all

let selftest ~wdmnet ~spec ~fingerprints =
  let check name ok =
    Printf.printf "selftest: %-60s %s\n%!" name (if ok then "ok" else "FAILED");
    ok
  in
  let traffic =
    check "seed-1 traces match perfbench/fingerprints.json" (same_traffic ~spec ~fingerprints)
  in
  let same a b = List.sort compare a = List.sort compare b in
  let names =
    check "BENCHMARK.json end_to_end = emitted names and units"
      (same (spec_metrics spec "end_to_end") end_to_end)
    && check "BENCHMARK.json per_layer = emitted names and units"
         (same (spec_metrics spec "per_layer") per_layer)
  in
  (* every workload, both modes, at a tiny size: run_one fails loudly on
     a metric it did not measure and reports the gates in [correct] *)
  let runs =
    List.for_all
      (fun (w : Workload.t) ->
        List.for_all
          (fun trace ->
            check
              (Printf.sprintf "%s --trace %d: every metric, all gates" w.name (Bool.to_int trace))
              (try run_one ~workload:w.name ~seed:7 ~seconds:0.3 ~trace ~wdmnet
               with Failure e ->
                 prerr_endline ("wdmbench: " ^ e);
                 false))
          [ false; true ])
      Workload.all
  in
  (* the digest gate must fire when the twin misses one op *)
  let w = List.hd Workload.all in
  let t = Workload.generate w ~seed:7 ~seconds:0.05 in
  let dropped =
    Array.of_list
      (List.filteri (fun i _ -> i <> Array.length t.Workload.ops / 2) (Array.to_list t.Workload.ops))
  in
  let work = Filename.concat ".perfbench" (Printf.sprintf "selftest-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  let r =
    { w; seed = 7; wdmnet; self = Sys.executable_name; work; gates = [];
      attempted = 0; failed = 0 }
  in
  Served.teardown (served_pass r ~label:"dropped" t (Workload.twin w.engine dropped)).cluster;
  rm_rf work;
  let fires = check "digest gate fires on a twin missing one op" (not (correct r)) in
  traffic && names && runs && fires

(* ---- entry ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: wdmbench run --workload W --seed N --seconds S --trace 0|1 --wdmnet EXE\n\
    \       wdmbench resume-serve --wal FILE --listen PATH\n\
    \       wdmbench selftest --wdmnet EXE --spec BENCHMARK.json --fingerprints FILE";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Served.stop_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] ->
        prerr_endline ("wdmbench: missing " ^ name);
        usage ()
    in
    find args
  in
  let int_opt name =
    match int_of_string_opt (opt name) with Some i -> i | None -> usage ()
  in
  let float_opt name =
    match float_of_string_opt (opt name) with Some f -> f | None -> usage ()
  in
  match args with
  | "run" :: _ -> (
    match
      run_one ~workload:(opt "--workload") ~seed:(int_opt "--seed")
        ~seconds:(float_opt "--seconds") ~trace:(int_opt "--trace" = 1)
        ~wdmnet:(opt "--wdmnet")
    with
    | (_ : bool) -> exit 0
    | exception Failure e ->
      prerr_endline ("wdmbench: " ^ e);
      exit 1)
  | "resume-serve" :: _ -> Served.resume_serve ~wal:(opt "--wal") ~listen:(opt "--listen")
  | "selftest" :: _ ->
    exit
      (if selftest ~wdmnet:(opt "--wdmnet") ~spec:(opt "--spec") ~fingerprints:(opt "--fingerprints")
       then 0
       else 1)
  | _ -> usage ()
