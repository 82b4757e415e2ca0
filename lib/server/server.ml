module Network = Wdm_multistage.Network
module P = Wdm_persist
module Tel = Wdm_telemetry

type address = Tcp of string * int | Unix_socket of string

let pp_address ppf = function
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path

type role = Leader | Follower

type follower_config = { leader : address; wal : string option }

(* A leader-side replica: a connection whose hello said 'F'.  Its
   outbox is the connection's own [out_q]. *)
type replica = {
  mutable subscribed : bool;  (** Subscribe handled; the stream is live *)
  mutable pending_digests : (int * int) list;  (** (seq, digest) awaiting ack *)
}

(* A follower's link to its leader, once connect(2) completed. *)
type link = { mutable greeted : bool  (** the leader's hello arrived *) }

(* What the event loop believes a connection is.  Every accepted fd
   starts as [Chello]; the 8-byte hello routes it to the framed request
   stream or makes it a replica.  A follower's own link to its leader
   is dialled by the loop and lives in the same table. *)
type ckind =
  | Chello  (** awaiting the 8-byte hello *)
  | Creq  (** framed request stream *)
  | Chttp  (** observability scraper (/metrics, /healthz, ...) *)
  | Creplica of replica  (** leader side: a follower's subscription *)
  | Cdial  (** follower side: connect(2) to the leader in progress *)
  | Cupstream of link  (** follower side: the leader link *)

(* Every field belongs to the loop thread. *)
type client = {
  cid : int;
  fd : Unix.file_descr;
  mutable kind : ckind;
  mutable closed : bool;
  mutable spans : bool;  (** the hello negotiated the span extension *)
  mutable c_requests : Tel.Metrics.counter option;
  fb : Framebuf.t;  (** incremental receive buffer *)
  out_q : string Queue.t;
      (** pending frames, oldest first; a flush gathers a batch of them
          into one writev(2) *)
  mutable out_off : int;  (** bytes of the front frame already written *)
  mutable out_bytes : int;  (** unwritten output across all queued frames *)
  mutable want_close : bool;  (** close once the output drains *)
  mutable rd_eof : bool;  (** stop reading this connection *)
  mutable deadline : float;  (** HTTP head timeout (absolute); 0 = none *)
}

(* An output queue larger than this means the peer is not reading what
   it is sent: cut it loose rather than buffer without bound.  Twice
   the largest legal frame, so one maximal frame always fits. *)
let out_limit = 2 * P.Wire.max_payload

type instruments = {
  sink : Tel.Sink.t;
  requests : Tel.Metrics.counter;
  responses : Tel.Metrics.counter;
  malformed : Tel.Metrics.counter;
  clients_total : Tel.Metrics.counter;
  accept_errors : Tel.Metrics.counter;
  g_clients_active : Tel.Metrics.gauge;
  h_latency : Tel.Histogram.t;
  (* per-request stage breakdown: where a request's time goes *)
  h_st_decode : Tel.Histogram.t;
  h_st_execute : Tel.Histogram.t;
  h_st_wal : Tel.Histogram.t;
  h_st_replicate : Tel.Histogram.t;
  h_st_respond : Tel.Histogram.t;
  slow_requests : Tel.Metrics.counter;
  (* replication, leader side *)
  r_snapshots_sent : Tel.Metrics.counter;
  r_resumes : Tel.Metrics.counter;
  r_ops_sent : Tel.Metrics.counter;
  r_bytes_sent : Tel.Metrics.counter;
  r_evictions : Tel.Metrics.counter;
  r_digest_checks : Tel.Metrics.counter;
  r_digest_failures : Tel.Metrics.counter;
  g_followers : Tel.Metrics.gauge;
  g_lag_ops : Tel.Metrics.gauge;
  g_lag_bytes : Tel.Metrics.gauge;
  (* replication, follower side *)
  r_applied : Tel.Metrics.counter;
  r_snapshots_recv : Tel.Metrics.counter;
  r_reconnects : Tel.Metrics.counter;
  r_digest_mismatch : Tel.Metrics.counter;
  g_follower_lag : Tel.Metrics.gauge;
}

(* One served request's timing record: what the span ring holds, what
   the slow-op log and the Chrome export render.  [sr_start] is the
   sink-clock instant decoding began; stages are contiguous slices in
   emission order. *)
type span_record = {
  sr_span : int option;
  sr_cid : int;
  sr_start : float;
  sr_total : float;
  sr_stages : (string * float) list;
}

type t = {
  mutable backend : P.Backend.t;
      (** the replicated state machine — multistage fabric or mesh;
          replaced when a follower installs a leader snapshot *)
  mutable store : P.Store.t option;
      (** replaced alongside [backend] in follower mode *)
  ins : instruments option;
  tel : Tel.Sink.t option;
  listen_fd : Unix.file_descr;
  bound : address;
  http_fd : Unix.file_descr option;
  http_bound : address option;
  ev : Evloop.t;
  conns : (Unix.file_descr, client) Hashtbl.t;
      (** keyed by fd; the kernel recycles fds, so a deferred reference
          to a client is checked against [closed] before use *)
  scratch : Bytes.t;  (** shared read buffer; bytes move to [c.fb] *)
  mutable next_cid : int;
  mutable n_clients : int;  (** open request-plane connections *)
  mutable served_count : int;
  mutable stopping : bool;  (** the loop is in its drain phase *)
  mutable drain_deadline : float;
  mutable accept_resume_at : float;
      (** listeners paused after an accept(2) failure; 0 = listening *)
  mutable last_sweep : float;
  max_conns : int option;
  conn_sndbuf : int option;
  (* the mailbox: the only state other threads write, under [mbox_mu] *)
  mbox_mu : Mutex.t;
  wake_r : Unix.file_descr;  (** loop side of the wake pipe *)
  wake_w : Unix.file_descr;  (** [promote] and [stop] poke this *)
  mutable mb_stop : bool;
  mutable mb_promotes : (int, string) result option ref list;
  mutable mb_closed : bool;  (** the loop has exited; nobody will answer *)
  mutable loop_thread : Thread.t option;
  (* replication *)
  mutable role : role;
  mutable epoch : int;  (** this leader generation's id *)
  mutable rep_seq : int;  (** committed ops so far (WAL record stream) *)
  ring : (int * P.Op.t) Queue.t;  (** recent (seq, op) for replica resume *)
  resume_window : int;
  digest_every : int;
  outbox_capacity : int;
  mutable last_digest_seq : int;
  mutable replicas : client list;  (** subscribed replica connections *)
  (* follower role *)
  follower_cfg : follower_config option;
  mutable repl_epoch : int;  (** leader generation we last synced to; 0 none *)
  mutable upstream : client option;  (** the link to the leader *)
  mutable force_snapshot : bool;  (** next subscribe must ask for a snapshot *)
  mutable redial_at : float;  (** 0 = no redial scheduled *)
  mutable backoff : float;
  mutable had_link : bool;
  mutable leader_seq : int;
      (** follower: highest seq the leader has shown us (op or digest);
          [leader_seq - rep_seq] is the apply lag *)
  (* observability plane *)
  span_buffer : int;
  spans_ring : span_record Queue.t;
  slow_ms : float option;
  slow_out : out_channel option;
  slow_owned : bool;  (** [stop] closes [slow_out] only if we opened it *)
  ready_lag : int;
}

let register_instruments sink =
  let reg = sink.Tel.Sink.metrics in
  let c help name = Tel.Metrics.counter reg ~help name in
  let g help name = Tel.Metrics.gauge reg ~help name in
  let h help name = Tel.Metrics.histogram reg ~help name in
  {
    sink;
    requests = c "Requests decoded off the wire" "server_requests_total";
    responses = c "Responses written back" "server_responses_total";
    malformed = c "Undecodable frames received" "server_malformed_total";
    clients_total = c "Client connections accepted" "server_clients_total";
    accept_errors =
      c "Transient accept(2) failures survived and connections rejected \
         by the --max-conns gate"
        "server_accept_errors_total";
    g_clients_active = g "Clients currently connected" "server_clients_active";
    h_latency =
      h "Decode-to-response-handed-to-the-socket latency of one request"
        "server_request_latency_seconds";
    h_st_decode = h "Frame decode time" "server_stage_decode_seconds";
    h_st_execute = h "Network execute time" "server_stage_execute_seconds";
    h_st_wal =
      h "WAL append (incl. fsync policy) time" "server_stage_wal_seconds";
    h_st_replicate =
      h "Replication ship time (outbox enqueue across followers)"
        "server_stage_replicate_seconds";
    h_st_respond =
      h "Response encode, enqueue and flush attempt"
        "server_stage_respond_seconds";
    slow_requests =
      c "Requests whose total latency crossed the --slow-ms threshold"
        "server_slow_requests_total";
    r_snapshots_sent =
      c "Full state snapshots sent to attaching followers"
        "repl_snapshots_sent_total";
    r_resumes = c "Follower attaches resumed from the ring" "repl_resumes_total";
    r_ops_sent = c "Replicated ops queued to followers" "repl_ops_sent_total";
    r_bytes_sent =
      c "Replication bytes queued to followers (incl. framing)"
        "repl_bytes_sent_total";
    r_evictions =
      c "Followers dropped for falling too far behind" "repl_evictions_total";
    r_digest_checks =
      c "Follower digest acknowledgements verified" "repl_digest_checks_total";
    r_digest_failures =
      c "Follower digest acknowledgements that disagreed"
        "repl_digest_failures_total";
    g_followers = g "Followers currently attached" "repl_followers";
    g_lag_ops = g "Largest follower outbox backlog, in ops" "repl_lag_ops";
    g_lag_bytes = g "Largest follower outbox backlog, in bytes" "repl_lag_bytes";
    r_applied = c "Replicated ops applied locally" "repl_applied_total";
    r_snapshots_recv =
      c "Leader snapshots installed" "repl_snapshots_received_total";
    r_reconnects =
      c "Replication links re-established after a drop" "repl_reconnects_total";
    r_digest_mismatch =
      c "Leader digests that disagreed with local state"
        "repl_digest_mismatch_total";
    g_follower_lag =
      g "Ops the leader has shown that this follower has not yet applied"
        "repl_follower_lag_ops";
  }

let now t = match t.ins with Some i -> Tel.Sink.now i.sink | None -> 0.
let inc t f = match t.ins with Some i -> Tel.Metrics.inc (f i) | None -> ()

(* Distinct across leader generations on one machine — what guards a
   follower's resume against replaying into a diverged successor. *)
let fresh_epoch () =
  let usec = int_of_float (Unix.gettimeofday () *. 1e6) in
  max 1 ((usec lxor (Unix.getpid () lsl 44)) land ((1 lsl 54) - 1))

let leader_string t =
  match t.follower_cfg with
  | Some { leader; _ } -> Format.asprintf "%a" pp_address leader
  | None -> ""

let sockaddr_of_address = function
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

(* ----- connections ----------------------------------------------------- *)

let set_clients_gauge t =
  match t.ins with
  | Some i -> Tel.Metrics.set i.g_clients_active (float_of_int t.n_clients)
  | None -> ()

let set_follower_gauges t =
  match t.ins with
  | None -> ()
  | Some i ->
    Tel.Metrics.set i.g_followers (float_of_int (List.length t.replicas));
    let lag_ops, lag_bytes =
      List.fold_left
        (fun (o, b) c -> (max o (Queue.length c.out_q), max b c.out_bytes))
        (0, 0) t.replicas
    in
    Tel.Metrics.set i.g_lag_ops (float_of_int lag_ops);
    Tel.Metrics.set i.g_lag_bytes (float_of_int lag_bytes)

let register t fd kind =
  let c =
    {
      cid = t.next_cid;
      fd;
      kind;
      closed = false;
      spans = false;
      c_requests = None;
      fb = Framebuf.create ();
      out_q = Queue.create ();
      out_off = 0;
      out_bytes = 0;
      want_close = false;
      rd_eof = false;
      deadline = 0.;
    }
  in
  t.next_cid <- t.next_cid + 1;
  Hashtbl.replace t.conns fd c;
  c

(* Capped exponential backoff between dials of the leader; the loop's
   wait timeout honours [redial_at]. *)
let schedule_redial t =
  t.redial_at <- Unix.gettimeofday () +. t.backoff;
  t.backoff <- min 2.0 (t.backoff *. 2.)

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove t.conns c.fd;
    Evloop.remove t.ev c.fd;
    (match c.kind with
    | Chello | Creq ->
      t.n_clients <- t.n_clients - 1;
      set_clients_gauge t
    | Creplica _ ->
      t.replicas <- List.filter (fun r -> r != c) t.replicas;
      set_follower_gauges t
    | Cdial | Cupstream _ ->
      (* every frame this link delivered has already been applied, so
         dropping it loses nothing; a follower dials again *)
      t.upstream <- None;
      if t.role = Follower && not t.stopping then schedule_redial t
    | Chttp -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Append one frame to a connection's output queue.  Returns whether
   the bytes were accepted — a closed or closing connection swallows
   them.  A peer that lets [out_limit] pile up is dropped at the next
   flush. *)
let enqueue_out c data =
  let accepted = (not c.closed) && not c.want_close in
  if accepted then begin
    Queue.add data c.out_q;
    c.out_bytes <- c.out_bytes + String.length data;
    if c.out_bytes > out_limit then begin
      Queue.clear c.out_q;
      c.out_bytes <- 0;
      c.out_off <- 0;
      c.want_close <- true;
      c.rd_eof <- true
    end
  end;
  accepted

let set_interest t c ~write =
  Evloop.modify t.ev c.fd ~read:((not c.rd_eof) && not t.stopping) ~write

(* Gather-write: bytes written, -1 EAGAIN, -2 EINTR, -3 dead peer.
   The stub keeps the runtime lock (the iovec points into the heap),
   which a nonblocking fd makes harmless. *)
external writev_frames : Unix.file_descr -> string array -> int -> int
  = "wdm_writev"

(* How many queued frames one writev gathers; must not exceed the
   stub's WDM_IOV_MAX. *)
let max_iov = 64

(* Write as much queued output as the kernel will take.  Only fully
   written frames are popped, so a partial write (tiny SO_SNDBUF)
   resumes from [out_off] of the front frame. *)
let rec conn_flush t c =
  if not c.closed then
    if Queue.is_empty c.out_q then begin
      if c.want_close then close_conn t c else set_interest t c ~write:false
    end
    else begin
      let batch = Array.make (min (Queue.length c.out_q) max_iov) "" in
      (try
         Queue.fold
           (fun i s ->
             if i >= Array.length batch then raise Exit;
             batch.(i) <- s;
             i + 1)
           0 c.out_q
         |> ignore
       with Exit -> ());
      match writev_frames c.fd batch c.out_off with
      | -2 (* EINTR *) -> conn_flush t c
      | -1 | 0 (* EAGAIN, or a kernel that took nothing *) ->
        set_interest t c ~write:true
      | n when n < 0 ->
        (* EPIPE/ECONNRESET: the peer is gone; pending output is moot *)
        close_conn t c
      | n ->
        c.out_bytes <- c.out_bytes - n;
        let rem = ref n in
        while !rem > 0 do
          let avail = String.length (Queue.peek c.out_q) - c.out_off in
          if !rem >= avail then begin
            ignore (Queue.pop c.out_q);
            c.out_off <- 0;
            rem := !rem - avail
          end
          else begin
            c.out_off <- c.out_off + !rem;
            rem := 0
          end
        done;
        conn_flush t c
    end

(* ----- leader-side replication ----------------------------------------- *)

let frame_to_follower msg =
  let b = Buffer.create 256 in
  P.Repl.encode_to_follower b msg;
  P.Wire.frame (Buffer.contents b)

let evict t c =
  inc t (fun i -> i.r_evictions);
  close_conn t c

(* Queue one frame to every replica.  A full outbox evicts the replica
   — admission never waits for a slow consumer. *)
let offer_frame t frame =
  List.iter
    (fun c ->
      if Queue.length c.out_q >= t.outbox_capacity then evict t c
      else if enqueue_out c frame then
        match t.ins with
        | Some i ->
          Tel.Metrics.inc i.r_ops_sent;
          Tel.Metrics.add i.r_bytes_sent (String.length frame)
        | None -> ())
    t.replicas;
  set_follower_gauges t

let offer_digest t =
  let digest = P.Backend.digest t.backend in
  let seq = t.rep_seq in
  let frame = frame_to_follower (P.Repl.Rep_digest { seq; digest }) in
  List.iter
    (fun c ->
      match c.kind with
      | Creplica r when Queue.length c.out_q < t.outbox_capacity ->
        if enqueue_out c frame then
          r.pending_digests <- (seq, digest) :: r.pending_digests
      | _ -> ())
    t.replicas

(* Every committed op, after the WAL append: the replication stream is
   the WAL, frame by frame. *)
let replicate t op =
  t.rep_seq <- t.rep_seq + 1;
  Queue.add (t.rep_seq, op) t.ring;
  if Queue.length t.ring > t.resume_window then ignore (Queue.pop t.ring);
  if t.replicas <> [] then begin
    offer_frame t (frame_to_follower (P.Repl.Rep_op { seq = t.rep_seq; op }));
    if t.rep_seq - t.last_digest_seq >= t.digest_every then begin
      t.last_digest_seq <- t.rep_seq;
      offer_digest t
    end
  end

(* A follower's Subscribe: decide resume vs snapshot.  No op can slip
   between the decision and the stream start — this loop is the only
   writer. *)
let handle_attach t c r ~epoch ~last_seq =
  if t.role <> Leader then begin
    ignore
      (enqueue_out c
         (frame_to_follower (P.Repl.Goodbye { reason = "not the leader" })));
    c.want_close <- true
  end
  else begin
    let ring_floor = t.rep_seq - Queue.length t.ring in
    let init =
      if epoch = t.epoch && last_seq >= ring_floor && last_seq <= t.rep_seq
      then begin
        inc t (fun i -> i.r_resumes);
        frame_to_follower (P.Repl.Init_resume { epoch = t.epoch; seq = last_seq })
        :: List.rev
             (Queue.fold
                (fun acc (seq, op) ->
                  if seq > last_seq then
                    frame_to_follower (P.Repl.Rep_op { seq; op }) :: acc
                  else acc)
                [] t.ring)
      end
      else begin
        inc t (fun i -> i.r_snapshots_sent);
        [
          frame_to_follower
            (P.Repl.Init_snapshot
               {
                 epoch = t.epoch;
                 seq = t.rep_seq;
                 state = P.Backend.encode_state t.backend;
               });
        ]
      end
    in
    let digest = P.Backend.digest t.backend in
    let dig = P.Repl.Rep_digest { seq = t.rep_seq; digest } in
    List.iter
      (fun f -> ignore (enqueue_out c f))
      (init @ [ frame_to_follower dig ]);
    r.subscribed <- true;
    r.pending_digests <- [ (t.rep_seq, digest) ];
    t.replicas <- c :: t.replicas;
    set_follower_gauges t
  end

let handle_ack t c r ~seq ~digest =
  match List.assoc_opt seq r.pending_digests with
  | None -> () (* an ack we no longer remember sending *)
  | Some sent ->
    r.pending_digests <- List.remove_assoc seq r.pending_digests;
    inc t (fun i -> i.r_digest_checks);
    if sent <> digest then begin
      inc t (fun i -> i.r_digest_failures);
      evict t c
    end

(* Frames from a replica: one Subscribe, then digest acks. *)
let replica_frames t c r =
  let continue = ref true in
  while !continue && not c.closed do
    match Framebuf.next_frame c.fb with
    | Framebuf.Need _ -> continue := false
    | Framebuf.Bad _ -> close_conn t c
    | Framebuf.Frame payload -> (
      match P.Repl.to_leader_of_string payload with
      | Ok (P.Repl.Subscribe { epoch; last_seq }) when not r.subscribed ->
        handle_attach t c r ~epoch ~last_seq
      | Ok (P.Repl.Ack { seq; digest }) when r.subscribed ->
        handle_ack t c r ~seq ~digest
      | Ok _ | Error _ -> close_conn t c)
  done

(* ----- follower-side replication --------------------------------------- *)

(* The stream diverged (bad seq, undecodable state, digest mismatch):
   drop the link and make the next subscribe demand a fresh snapshot. *)
let resync t c =
  t.force_snapshot <- true;
  close_conn t c

let send_ack c ~seq ~digest =
  let b = Buffer.create 32 in
  P.Repl.encode_to_leader b (P.Repl.Ack { seq; digest });
  ignore (enqueue_out c (P.Wire.frame (Buffer.contents b)))

(* Apply one replication message, in the pass that decoded it. *)
let handle_repl t c msg =
  (* every message that names a leader seq tells us how far ahead the
     leader is; the gap to [rep_seq] is the apply lag /readyz gates on *)
  (match msg with
  | P.Repl.Init_snapshot { seq; _ }
  | P.Repl.Init_resume { seq; _ }
  | P.Repl.Rep_op { seq; _ }
  | P.Repl.Rep_digest { seq; _ } ->
    if seq > t.leader_seq then t.leader_seq <- seq
  | P.Repl.Goodbye _ -> ());
  (match msg with
  | P.Repl.Init_snapshot { epoch; seq; state } -> (
    match P.Backend.restore ?telemetry:t.tel state with
    | Error _ | (exception Invalid_argument _) -> resync t c
    | Ok backend -> (
      t.backend <- backend;
      t.rep_seq <- seq;
      t.repl_epoch <- epoch;
      inc t (fun i -> i.r_snapshots_recv);
      match t.follower_cfg with
      | Some { wal = Some wal; _ } ->
        (match t.store with
        | Some s -> ( try P.Store.close s with Sys_error _ -> ())
        | None -> ());
        t.store <- Some (P.Store.start_backend ?telemetry:t.tel ~wal backend);
        P.Repl.save_mark ~wal { P.Repl.epoch; base_seq = seq }
      | _ -> ()))
  | P.Repl.Init_resume { epoch; seq } ->
    if seq <> t.rep_seq then resync t c else t.repl_epoch <- epoch
  | P.Repl.Rep_op { seq; op } -> (
    if seq <> t.rep_seq + 1 then resync t c
    else
      match P.Backend.apply t.backend op with
      | Ok _ ->
        t.rep_seq <- seq;
        inc t (fun i -> i.r_applied);
        Option.iter (fun s -> P.Store.log s op) t.store
      | Error _ -> resync t c)
  | P.Repl.Rep_digest { seq; digest } ->
    let own = P.Backend.digest t.backend in
    if seq <> t.rep_seq || own <> digest then begin
      inc t (fun i -> i.r_digest_mismatch);
      resync t c
    end
    else send_ack c ~seq ~digest:own
  | P.Repl.Goodbye _ -> close_conn t c);
  match t.ins with
  | Some i ->
    Tel.Metrics.set i.g_follower_lag
      (float_of_int (max 0 (t.leader_seq - t.rep_seq)))
  | None -> ()

(* Frames from the leader: its 8-byte hello, then the op stream. *)
let upstream_frames t c g =
  if (not g.greeted) && Framebuf.length c.fb >= P.Wire.header_len then begin
    if Protocol.check_server_hello (Framebuf.take c.fb P.Wire.header_len) <> Ok ()
    then close_conn t c
    else begin
      g.greeted <- true;
      if t.had_link then inc t (fun i -> i.r_reconnects);
      t.had_link <- true;
      t.backoff <- 0.05
    end
  end;
  let continue = ref g.greeted in
  while !continue && not c.closed do
    match Framebuf.next_frame c.fb with
    | Framebuf.Need _ -> continue := false
    | Framebuf.Bad _ -> close_conn t c
    | Framebuf.Frame payload -> (
      match P.Repl.to_follower_of_string payload with
      | Ok msg -> handle_repl t c msg
      | Error _ -> close_conn t c)
  done

(* The connection is up: send the hello and the subscribe back to back
   (the leader reads them in order) and start reading. *)
let link_up t c =
  c.kind <- Cupstream { greeted = false };
  let b = Buffer.create 32 in
  P.Repl.encode_to_leader b
    (P.Repl.Subscribe
       {
         epoch = t.repl_epoch;
         last_seq = (if t.force_snapshot then -1 else t.rep_seq);
       });
  ignore (enqueue_out c Protocol.follower_hello);
  ignore (enqueue_out c (P.Wire.frame (Buffer.contents b)));
  conn_flush t c

let dial t leader =
  t.redial_at <- 0.;
  match
    let domain, sockaddr = sockaddr_of_address leader in
    (Unix.socket domain Unix.SOCK_STREAM 0, sockaddr)
  with
  | exception (Unix.Unix_error _ | Not_found) -> schedule_redial t
  | fd, sockaddr -> (
    Unix.set_nonblock fd;
    let c = register t fd Cdial in
    t.upstream <- Some c;
    Evloop.add t.ev fd ~read:false ~write:true;
    match Unix.connect fd sockaddr with
    | () -> link_up t c
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c)

let finish_dial t c =
  match Unix.getsockopt_error c.fd with
  | None -> link_up t c
  | Some _ | (exception Unix.Unix_error _) -> close_conn t c

(* ----- request execution ----------------------------------------------- *)

(* Frame a response onto the connection's output queue.  A batch reply
   counts once per sub-response so the counter reconciles with
   [server_requests_total] whichever way the ops arrived. *)
let send_response t c resp =
  let b = Buffer.create 64 in
  P.Resp.encode b resp;
  if enqueue_out c (P.Wire.frame (Buffer.contents b)) then
    match t.ins with
    | Some i ->
      let n =
        match (resp : P.Resp.t) with
        | P.Resp.Batch_reply rs -> List.length rs
        | _ -> 1
      in
      Tel.Metrics.add i.responses n
    | None -> ()

(* How far behind the slowest consumer is: on a follower the gap to
   the leader's newest shown seq, on a leader the deepest replica
   outbox. *)
let current_lag t =
  match t.role with
  | Follower -> max 0 (t.leader_seq - t.rep_seq)
  | Leader ->
    List.fold_left (fun acc c -> max acc (Queue.length c.out_q)) 0 t.replicas

(* Role, epoch, applied seq and lag ride alongside the metrics so a
   poller (wdmnet top, the CI smoke) can assert convergence without a
   digest round-trip; a follower reports the leader generation it
   synced to. *)
let stats_renderer t () =
  let base =
    match t.ins with
    | None -> []
    | Some i -> (
      match Tel.Metrics.to_json (Tel.Sink.snapshot i.sink) with
      | Tel.Json.Obj kvs -> kvs
      | j -> [ ("metrics", j) ])
  in
  let role, epoch =
    match t.role with
    | Leader -> ("leader", t.epoch)
    | Follower -> ("follower", t.repl_epoch)
  in
  Tel.Json.to_string
    (Tel.Json.Obj
       ([
          ("role", Tel.Json.String role);
          ("epoch", Tel.Json.Int epoch);
          ("applied", Tel.Json.Int t.rep_seq);
          ("lag", Tel.Json.Int (current_lag t));
        ]
       @ base))

let slow_line sr =
  Tel.Json.to_string
    (Tel.Json.Obj
       ([ ("ts", Tel.Json.Float sr.sr_start) ]
       @ (match sr.sr_span with
         | Some s -> [ ("span", Tel.Json.Int s) ]
         | None -> [])
       @ [
           ("client", Tel.Json.Int sr.sr_cid);
           ("total_ms", Tel.Json.Float (sr.sr_total *. 1000.));
           ( "stages_ms",
             Tel.Json.Obj
               (List.map
                  (fun (k, v) -> (k, Tel.Json.Float (v *. 1000.)))
                  sr.sr_stages) );
         ]))

let trace_stages trace sr =
  let span_detail =
    (match sr.sr_span with Some s -> [ ("span", string_of_int s) ] | None -> [])
    @ [ ("client", string_of_int sr.sr_cid) ]
  in
  ignore
    (List.fold_left
       (fun ts (name, d) ->
         Tel.Trace.record trace ~ts ~dur:d
           ~detail:(("stage", name) :: span_detail)
           Tel.Trace.Stage;
         ts +. d)
       sr.sr_start sr.sr_stages)

(* Ring-buffer the record, mirror it to the trace sink as one Stage
   slice per stage, and append the slow-op JSONL line when the total
   crosses the threshold.  Only called when instruments exist — with
   telemetry off the request path never builds a record at all. *)
let record_span t i sr =
  List.iter
    (fun (name, d) ->
      let h =
        match name with
        | "decode" -> i.h_st_decode
        | "execute" -> i.h_st_execute
        | "wal" -> i.h_st_wal
        | "replicate" -> i.h_st_replicate
        | _ -> i.h_st_respond
      in
      Tel.Histogram.observe h d)
    sr.sr_stages;
  Tel.Histogram.observe i.h_latency sr.sr_total;
  Queue.add sr t.spans_ring;
  if Queue.length t.spans_ring > t.span_buffer then
    ignore (Queue.pop t.spans_ring);
  Option.iter (fun trace -> trace_stages trace sr) i.sink.Tel.Sink.trace;
  match t.slow_ms with
  | Some threshold when sr.sr_total *. 1000. >= threshold -> (
    Tel.Metrics.inc i.slow_requests;
    match t.slow_out with
    | Some oc ->
      output_string oc (slow_line sr);
      output_char oc '\n';
      flush oc
    | None -> ())
  | _ -> ()

(* The op this request committed, if any — what the WAL records and
   the replication stream carries.  Ops that failed to execute are
   excluded: [Store.recover] treats a failing [Op.apply] as
   corruption, and replaying a refused Disconnect or an out-of-range
   fault fails again — one such client request would poison the WAL
   permanently.  (Refused Connect and Repair are still committed;
   replay tolerates those.)  A [Repair] record carries the outcome
   this server actually produced, keeping divergence detection
   honest. *)
let committed_op req resp =
  match (req : P.Resp.request) with
  | P.Resp.Get_digest | P.Resp.Get_stats | P.Resp.Promote -> None
  (* batches are unrolled sub-op by sub-op before commit; a whole
     batch never reaches the WAL as one record *)
  | P.Resp.Batch _ -> None
  | P.Resp.Admit op -> (
    match (resp : P.Resp.t) with
    | P.Resp.Release_failed _ | P.Resp.Server_error _ -> None
    | P.Resp.Admitted _ -> (
      match op with
      | P.Op.Repair { connection; _ } ->
        Some (P.Op.Repair { connection; rehomed = true })
      | _ -> Some op)
    | _ -> (
      match op with
      | P.Op.Repair { connection; _ } ->
        Some (P.Op.Repair { connection; rehomed = false })
      | _ -> Some op))

(* Promotion: cut the replication link, take a fresh epoch, start
   leading.  The store and network continue as they are — the newest
   boundary-consistent state this follower reached is exactly what it
   starts serving. *)
let do_promote t =
  if t.role = Leader then Error "already the leader"
  else begin
    t.role <- Leader;
    t.epoch <- fresh_epoch ();
    t.redial_at <- 0.;
    Option.iter (close_conn t) t.upstream;
    Queue.clear t.ring;
    t.last_digest_seq <- t.rep_seq;
    (match t.follower_cfg with
    | Some { wal = Some wal; _ } -> P.Repl.remove_mark ~wal
    | _ -> ());
    Ok t.rep_seq
  end

let execute_request t req =
  match (req : P.Resp.request) with
  | P.Resp.Promote -> (
    match do_promote t with
    | Ok seq -> P.Resp.Promoted { seq }
    | Error e -> P.Resp.Server_error e)
  | P.Resp.Admit _ when t.role = Follower ->
    P.Resp.Not_leader { leader = leader_string t }
  | _ -> P.Resp.execute_backend ~stats:(stats_renderer t) t.backend req

let request_weight (req : P.Resp.request) =
  match req with P.Resp.Batch subs -> List.length subs | _ -> 1

(* Execute, then commit — WAL append, replication fan-out — sub-op by
   sub-op, so the WAL and the stream see exactly the records a
   sequential client would have produced.  [commit] performs the two
   commit steps, so the traced path can time them. *)
let execute_all t req ~commit =
  let run sub =
    let r = execute_request t sub in
    (if t.role = Leader then
       match committed_op sub r with
       | None -> ()
       | Some op -> commit op);
    r
  in
  match (req : P.Resp.request) with
  | P.Resp.Batch subs -> P.Resp.Batch_reply (List.map run subs)
  | _ -> run req

let log_op t op = Option.iter (fun s -> P.Store.log s op) t.store

(* Answer, and flush once the receive buffer holds no further complete
   request: pipelined frames that arrived together share one writev. *)
let respond t c resp =
  send_response t c resp;
  if Framebuf.length c.fb = 0 then conn_flush t c

let handle_request t c req ~span ~t0 ~t_dec =
  t.served_count <- t.served_count + request_weight req;
  match t.ins with
  | None ->
    (* untimed path: no clock reads, no record *)
    respond t c
      (execute_all t req ~commit:(fun op ->
           log_op t op;
           replicate t op))
  | Some i ->
    let wal_acc = ref 0. and repl_acc = ref 0. in
    let resp =
      execute_all t req ~commit:(fun op ->
          let t0 = now t in
          log_op t op;
          let t1 = now t in
          replicate t op;
          wal_acc := !wal_acc +. (t1 -. t0);
          repl_acc := !repl_acc +. (now t -. t1))
    in
    let t_exec = now t in
    respond t c resp;
    let t_done = now t in
    record_span t i
      {
        sr_span = span;
        sr_cid = c.cid;
        sr_start = t0;
        sr_total = t_done -. t0;
        sr_stages =
          [
            ("decode", t_dec -. t0);
            ("execute", max 0. (t_exec -. t_dec -. !wal_acc -. !repl_acc));
            ("wal", !wal_acc);
            ("replicate", !repl_acc);
            ("respond", t_done -. t_exec);
          ];
      }

let malformed t c reason =
  inc t (fun i -> i.malformed);
  send_response t c (P.Resp.Server_error reason);
  c.rd_eof <- true;
  c.want_close <- true

(* Run every complete frame buffered on a request connection to
   completion: decode, execute, commit, respond. *)
let request_frames t c =
  let continue = ref true in
  while !continue && not (c.closed || c.want_close) do
    match Framebuf.next_frame c.fb with
    | Framebuf.Need _ -> continue := false
    | Framebuf.Bad reason -> malformed t c reason
    | Framebuf.Frame payload -> (
      let t0 = now t in
      let r = P.Wire.reader payload in
      match
        let req = P.Resp.decode_request r in
        (* requests are self-delimiting, so the negotiated trailing
           span id sits cleanly after the request proper *)
        let span = if c.spans then Some (P.Wire.get_int r) else None in
        P.Wire.expect_end r;
        (req, span)
      with
      | req, span ->
        let w = request_weight req in
        Option.iter (fun cr -> Tel.Metrics.add cr w) c.c_requests;
        (match t.ins with
        | Some i -> Tel.Metrics.add i.requests w
        | None -> ());
        handle_request t c req ~span ~t0 ~t_dec:(now t)
      | exception P.Wire.Decode_error { offset; reason } ->
        malformed t c (Printf.sprintf "%s at payload offset %d" reason offset))
  done

(* ----- observability plane (HTTP 1.0) ---------------------------------- *)

(* Leader: WAL recovery runs synchronously before [start] returns, so a
   leader that answers at all has recovered.  Follower: ready only once
   the replication link is greeted, it has synced to some leader
   generation, and the apply lag is within [ready_lag]; [promote] flips
   the role and with it the answer. *)
let ready t =
  match t.role with
  | Leader -> true
  | Follower ->
    let linked =
      match t.upstream with
      | Some { kind = Cupstream { greeted }; _ } -> greeted
      | _ -> false
    in
    linked && t.repl_epoch <> 0 && t.leader_seq - t.rep_seq <= t.ready_lag

(* The span ring rendered as a Chrome trace: each request is its
   contiguous stage slices, correlated by span id in [args]. *)
let spans_chrome t =
  let trace = Tel.Trace.create () in
  List.iter (trace_stages trace) (List.of_seq (Queue.to_seq t.spans_ring));
  Tel.Trace.to_chrome trace

let http_route t path =
  match path with
  | "/healthz" -> ("200 OK", "text/plain; charset=utf-8", "ok\n")
  | "/readyz" ->
    let body =
      Printf.sprintf "role=%s applied=%d lag=%d\n"
        (match t.role with Leader -> "leader" | Follower -> "follower")
        t.rep_seq
        (max 0 (t.leader_seq - t.rep_seq))
    in
    if ready t then ("200 OK", "text/plain; charset=utf-8", "ready\n" ^ body)
    else
      ("503 Service Unavailable", "text/plain; charset=utf-8", "behind\n" ^ body)
  | "/metrics" ->
    let body =
      match t.ins with
      | None -> ""
      | Some i -> Tel.Metrics.to_prometheus (Tel.Sink.snapshot i.sink)
    in
    ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
  | "/spans" -> ("200 OK", "application/json", spans_chrome t)
  | _ -> ("404 Not Found", "text/plain; charset=utf-8", "not found\n")

(* Answer an observability request with whatever head has arrived —
   the request line is all we parse — and close once it drains.
   HTTP/1.0, Connection: close: a scraper per connection. *)
let http_answer t c =
  let status, ctype, body =
    match String.split_on_char ' ' (Framebuf.contents c.fb) with
    | "GET" :: path :: _ ->
      (* strip any query string: /readyz?verbose -> /readyz *)
      let path =
        match String.index_opt path '?' with
        | Some q -> String.sub path 0 q
        | None -> path
      in
      http_route t path
    | _ ->
      ( "400 Bad Request",
        "text/plain; charset=utf-8",
        "only GET is served here\n" )
  in
  ignore
    (enqueue_out c
       (Printf.sprintf
          "HTTP/1.0 %s\r\n\
           Content-Type: %s\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\
           \r\n\
           %s"
          status ctype (String.length body) body));
  c.rd_eof <- true;
  c.want_close <- true;
  c.deadline <- 0.;
  conn_flush t c

let http_head_done c =
  Framebuf.length c.fb >= 4096
  ||
  let s = Framebuf.contents c.fb in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  has "\r\n\r\n" || has "\n\n"

(* ----- event loop ------------------------------------------------------ *)

(* Route freshly buffered bytes according to what the connection turned
   out to be.  Runs after every successful read. *)
let rec conn_dispatch t c =
  match c.kind with
  | Chello ->
    if Framebuf.length c.fb >= P.Wire.header_len then begin
      let hello = Framebuf.take c.fb P.Wire.header_len in
      if Protocol.check_client_hello hello = Ok () then begin
        c.kind <- Creq;
        c.spans <- Protocol.hello_has_spans hello;
        (match t.ins with
        | Some i ->
          c.c_requests <-
            Some
              (Tel.Metrics.counter i.sink.Tel.Sink.metrics
                 ~help:"Requests received from this client"
                 (Printf.sprintf "server_client_requests_total{client=\"%d\"}"
                    c.cid));
          Tel.Metrics.inc i.clients_total
        | None -> ());
        (* always advertise the span capability; a pre-flags client
           reads the flag byte as the reserved padding it has always
           ignored *)
        ignore (enqueue_out c Protocol.server_hello_spans);
        conn_dispatch t c
      end
      else if Protocol.check_follower_hello hello = Ok () then begin
        (* a replica is not a request-plane client *)
        t.n_clients <- t.n_clients - 1;
        set_clients_gauge t;
        c.kind <- Creplica { subscribed = false; pending_digests = [] };
        ignore (enqueue_out c Protocol.server_hello_spans);
        conn_dispatch t c
      end
      else close_conn t c
    end
  | Creq -> request_frames t c
  | Chttp -> if http_head_done c then http_answer t c
  | Creplica r -> replica_frames t c r
  | Cupstream g -> upstream_frames t c g
  | Cdial -> ()

let on_eof t c =
  match c.kind with
  | Chttp -> http_answer t c
  | Creq ->
    (* half a frame followed by EOF is protocol damage, not a clean
       goodbye; either way responses already queued still go out *)
    if Framebuf.length c.fb > 0 then malformed t c "peer closed mid-frame"
    else c.want_close <- true
  | Chello | Creplica _ | Cdial | Cupstream _ -> close_conn t c

(* Drain readable bytes into the connection's buffer and run what they
   complete, a bounded number of chunks per readiness event so one
   firehose client cannot starve the rest (level-triggered backends
   re-report the remainder); then flush whatever the pass produced. *)
let conn_readable t c =
  let rounds = ref 0 in
  while !rounds < 4 && not (c.rd_eof || c.closed) do
    incr rounds;
    match Unix.read c.fd t.scratch 0 (Bytes.length t.scratch) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      rounds := max_int
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c
    | 0 ->
      c.rd_eof <- true;
      on_eof t c
    | n ->
      Framebuf.add_subbytes c.fb t.scratch ~off:0 ~len:n;
      conn_dispatch t c
  done;
  conn_flush t c

(* EMFILE/ENFILE (fd exhaustion), ECONNABORTED (peer gave up while
   queued) and EINTR are conditions a server rides out; anything else
   is survived too, with a longer pause, so a persistent error cannot
   spin the loop hot. *)
let accept_transient = function
  | Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED | Unix.EINTR -> true
  | _ -> false

let listeners t = t.listen_fd :: Option.to_list t.http_fd

let set_listening t on =
  List.iter (fun fd -> Evloop.modify t.ev fd ~read:on ~write:false) (listeners t)

let accept_ready t lfd ~http =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
      (* stop listening until the timer restores it: every connection
         already open keeps being served meanwhile *)
      inc t (fun i -> i.accept_errors);
      set_listening t false;
      t.accept_resume_at <-
        (Unix.gettimeofday () +. if accept_transient err then 0.05 else 0.25);
      continue := false
    | fd, _peer ->
      let over =
        (* the gate protects the request plane; scrapes stay
           answerable even at the connection cap *)
        (not http)
        && match t.max_conns with
           | Some m -> Hashtbl.length t.conns >= m
           | None -> false
      in
      if over then begin
        inc t (fun i -> i.accept_errors);
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        (* raises on unix sockets; harmless to skip there *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (match t.conn_sndbuf with
        | Some n when not http -> (
          try Unix.setsockopt_int fd Unix.SO_SNDBUF n
          with Unix.Unix_error _ -> ())
        | _ -> ());
        let c = register t fd (if http then Chttp else Chello) in
        if http then c.deadline <- Unix.gettimeofday () +. 5.0
        else begin
          t.n_clients <- t.n_clients + 1;
          set_clients_gauge t
        end;
        Evloop.add t.ev fd ~read:true ~write:false
      end
  done

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 (Bytes.length b) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let handle_event t (fd, rd, wr) =
  if fd = t.wake_r then drain_wake t
  else if fd = t.listen_fd then (if rd then accept_ready t fd ~http:false)
  else if Some fd = t.http_fd then (if rd then accept_ready t fd ~http:true)
  else
    match Hashtbl.find_opt t.conns fd with
    | None -> ()
    | Some ({ kind = Cdial; _ } as c) -> finish_dial t c
    | Some c ->
      if wr then conn_flush t c;
      if rd && not c.closed then conn_readable t c

(* Stop: no new connections, no new requests; queue a Goodbye to every
   replica, then flush until everything drains or the grace deadline
   passes.  Every request already decoded has been answered. *)
let begin_drain t =
  t.stopping <- true;
  t.drain_deadline <- Unix.gettimeofday () +. 5.0;
  set_listening t false;
  t.redial_at <- 0.;
  Option.iter (close_conn t) t.upstream;
  let goodbye = frame_to_follower (P.Repl.Goodbye { reason = "shutdown" }) in
  List.iter
    (fun c ->
      ignore (enqueue_out c goodbye);
      c.want_close <- true)
    t.replicas;
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.iter (fun c ->
         c.rd_eof <- true;
         conn_flush t c)

(* The promote/stop mailbox, read once per pass. *)
let take_mail t =
  Mutex.lock t.mbox_mu;
  let stop = t.mb_stop and promotes = t.mb_promotes in
  t.mb_promotes <- [];
  Mutex.unlock t.mbox_mu;
  if promotes <> [] then begin
    let results = List.map (fun cell -> (cell, do_promote t)) promotes in
    Mutex.lock t.mbox_mu;
    List.iter (fun (cell, r) -> cell := Some r) results;
    Mutex.unlock t.mbox_mu
  end;
  if stop && not t.stopping then begin_drain t

let timeout_ms t nw =
  let next =
    List.fold_left
      (fun acc at -> if at > 0. then min acc at else acc)
      (nw +. if t.stopping then 0.01 else 0.1)
      [ t.redial_at; t.accept_resume_at ]
  in
  max 0 (int_of_float (Float.ceil ((next -. nw) *. 1000.)))

(* Timers: the redial, the listener pause, and the HTTP head deadline —
   an HTTP peer that never finishes its head gets answered with what
   arrived once its deadline passes. *)
let run_timers t nw =
  (match t.follower_cfg with
  | Some cfg when t.redial_at > 0. && nw >= t.redial_at -> dial t cfg.leader
  | _ -> ());
  if t.accept_resume_at > 0. && nw >= t.accept_resume_at then begin
    t.accept_resume_at <- 0.;
    if not t.stopping then set_listening t true
  end;
  if nw -. t.last_sweep >= 1.0 then begin
    t.last_sweep <- nw;
    Hashtbl.fold
      (fun _ c acc ->
        if c.kind = Chttp && c.deadline > 0. && nw > c.deadline then c :: acc
        else acc)
      t.conns []
    |> List.iter (http_answer t)
  end

(* The loop exits once the drain phase has flushed everything or run
   out of grace; whatever way it exits, the mailbox is closed so a
   pending [promote] is answered instead of waiting forever. *)
let loop_run t =
  let close_mailbox () =
    Evloop.close t.ev;
    Mutex.lock t.mbox_mu;
    t.mb_closed <- true;
    List.iter
      (fun cell -> cell := Some (Error "server is stopped"))
      t.mb_promotes;
    t.mb_promotes <- [];
    Mutex.unlock t.mbox_mu
  in
  Fun.protect ~finally:close_mailbox @@ fun () ->
  Evloop.add t.ev t.wake_r ~read:true ~write:false;
  List.iter
    (fun fd ->
      Unix.set_nonblock fd;
      Evloop.add t.ev fd ~read:true ~write:false)
    (listeners t);
  Option.iter (fun cfg -> dial t cfg.leader) t.follower_cfg;
  let finished = ref false in
  while not !finished do
    Evloop.wait t.ev ~timeout_ms:(timeout_ms t (Unix.gettimeofday ()))
    |> List.iter (handle_event t);
    (* ops committed this pass reach the replicas in one write each *)
    List.iter (fun c -> if c.out_bytes > 0 then conn_flush t c) t.replicas;
    take_mail t;
    let nw = Unix.gettimeofday () in
    run_timers t nw;
    if t.stopping then begin
      let drained =
        Hashtbl.fold (fun _ c acc -> acc && c.out_bytes = 0) t.conns true
      in
      if drained || nw > t.drain_deadline then begin
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
        |> List.iter (close_conn t);
        finished := true
      end
    end
  done

(* ----- lifecycle ------------------------------------------------------- *)

let bind_listen addr =
  let domain, sockaddr = sockaddr_of_address addr in
  (match addr with
  | Unix_socket path -> if Sys.file_exists path then Unix.unlink path
  | Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sockaddr;
  Unix.listen fd 512;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (a, p) -> (fd, Tcp (Unix.string_of_inet_addr a, p))
  | Unix.ADDR_UNIX _ -> (fd, addr)

let start_backend ?telemetry ?store ?(digest_every = 64) ?(resume_window = 1024)
    ?(outbox_capacity = 1024) ?follower ?http ?(ready_lag = 64) ?slow_ms
    ?slow_log ?(span_buffer = 1024) ?max_conns ?conn_sndbuf ~backend addr =
  (match max_conns with
  | Some m when m < 1 -> invalid_arg "Server.start: max_conns must be >= 1"
  | _ -> ());
  if digest_every < 1 then invalid_arg "Server.start: digest_every must be >= 1";
  if resume_window < 1 then
    invalid_arg "Server.start: resume_window must be >= 1";
  if outbox_capacity < 1 then
    invalid_arg "Server.start: outbox_capacity must be >= 1";
  if follower <> None && store <> None then
    invalid_arg "Server.start: a follower manages its own store";
  if ready_lag < 0 then invalid_arg "Server.start: ready_lag must be >= 0";
  if span_buffer < 1 then invalid_arg "Server.start: span_buffer must be >= 1";
  (match slow_ms with
  | Some ms when ms < 0. -> invalid_arg "Server.start: slow_ms must be >= 0"
  | _ -> ());
  (* a peer that vanishes mid-response must surface as EPIPE on the
     write, not as a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* A restarting follower with a WAL resumes from its own disk: the
     mark says where in the leader's stream its log began, the local
     recovery replays what it had applied, and the subscribe asks only
     for the remainder. *)
  let backend, store, repl_epoch, rep_seq =
    match follower with
    | Some { wal = Some wal; _ } -> (
      match P.Repl.load_mark ~wal with
      | None -> (backend, None, 0, -1)
      | Some { P.Repl.epoch; base_seq } -> (
        match P.Store.resume_backend ?telemetry ~wal () with
        | Error _ -> (backend, None, 0, -1)
        | Ok (store, recovery) ->
          ( recovery.P.Store.backend,
            Some store,
            epoch,
            base_seq + P.Store.wal_records store )))
    | Some { wal = None; _ } -> (backend, None, 0, -1)
    | None ->
      let base = match store with Some s -> P.Store.wal_records s | None -> 0 in
      (backend, store, 0, base)
  in
  let listen_fd, bound = bind_listen addr in
  let http_fd, http_bound =
    match http with
    | None -> (None, None)
    | Some haddr ->
      let fd, hbound = bind_listen haddr in
      (Some fd, Some hbound)
  in
  let slow_out, slow_owned =
    match slow_ms with
    | None -> (None, false)
    | Some _ -> (
      match slow_log with
      | Some path -> (Some (open_out path), true)
      | None -> (Some stderr, false))
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      backend;
      store;
      ins = Option.map register_instruments telemetry;
      tel = telemetry;
      listen_fd;
      bound;
      http_fd;
      http_bound;
      ev = Evloop.create ();
      conns = Hashtbl.create 64;
      scratch = Bytes.create 65536;
      next_cid = 1;
      n_clients = 0;
      served_count = 0;
      stopping = false;
      drain_deadline = 0.;
      accept_resume_at = 0.;
      last_sweep = 0.;
      max_conns;
      conn_sndbuf;
      mbox_mu = Mutex.create ();
      wake_r;
      wake_w;
      mb_stop = false;
      mb_promotes = [];
      mb_closed = false;
      loop_thread = None;
      role = (match follower with Some _ -> Follower | None -> Leader);
      epoch = fresh_epoch ();
      rep_seq = max 0 rep_seq;
      ring = Queue.create ();
      resume_window;
      digest_every;
      outbox_capacity;
      last_digest_seq = max 0 rep_seq;
      replicas = [];
      follower_cfg = follower;
      repl_epoch;
      upstream = None;
      force_snapshot = rep_seq < 0;
      redial_at = 0.;
      backoff = 0.05;
      had_link = false;
      leader_seq = max 0 rep_seq;
      span_buffer;
      spans_ring = Queue.create ();
      slow_ms;
      slow_out;
      slow_owned;
      ready_lag;
    }
  in
  t.loop_thread <- Some (Thread.create loop_run t);
  t

let start ?telemetry ?store ?digest_every ?resume_window ?outbox_capacity
    ?follower ?http ?ready_lag ?slow_ms ?slow_log ?span_buffer ?max_conns
    ?conn_sndbuf ~net addr =
  start_backend ?telemetry ?store ?digest_every ?resume_window
    ?outbox_capacity ?follower ?http ?ready_lag ?slow_ms ?slow_log
    ?span_buffer ?max_conns ?conn_sndbuf ~backend:(P.Backend.Net net) addr

let address t = t.bound
let http_address t = t.http_bound
let role t = t.role
let applied t = t.rep_seq
let backend t = t.backend

let network t =
  match t.backend with
  | P.Backend.Net net -> net
  | P.Backend.Mesh _ -> invalid_arg "Server.network: this server runs a mesh backend"

let current_store t = t.store

let spans t =
  List.map
    (fun sr -> (sr.sr_span, sr.sr_cid, sr.sr_start, sr.sr_total, sr.sr_stages))
    (List.of_seq (Queue.to_seq t.spans_ring))

(* Poke the loop's wake pipe.  Non-blocking: a full pipe means the loop
   has wakeups queued already, which is all a wake can ask for. *)
let wake t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1) with Unix.Unix_error _ -> ()

let promote t =
  let cell = ref None in
  Mutex.lock t.mbox_mu;
  let posted = not (t.mb_stop || t.mb_closed) in
  if posted then t.mb_promotes <- cell :: t.mb_promotes;
  Mutex.unlock t.mbox_mu;
  if not posted then Error "server is stopped"
  else begin
    wake t;
    let rec await () =
      Mutex.lock t.mbox_mu;
      let r = !cell in
      Mutex.unlock t.mbox_mu;
      match r with
      | Some r -> r
      | None ->
        Thread.delay 0.001;
        await ()
    in
    await ()
  end

let stop t =
  Mutex.lock t.mbox_mu;
  let first = not t.mb_stop in
  t.mb_stop <- true;
  Mutex.unlock t.mbox_mu;
  if first then begin
    wake t;
    Option.iter Thread.join t.loop_thread;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (listeners t);
    List.iter
      (function
        | Some (Unix_socket path) -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> ())
      [ Some t.bound; t.http_bound ];
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    match t.slow_out with
    | Some oc ->
      (try flush oc with Sys_error _ -> ());
      if t.slow_owned then ( try close_out oc with Sys_error _ -> ())
    | None -> ()
  end

let served t = t.served_count
