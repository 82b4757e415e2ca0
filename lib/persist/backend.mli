(** The replicated state machine behind the WAL, the snapshots and the
    server: either the paper's multistage fabric or a mesh RWA network.

    One WAL format, one op codec, one digest definition cover both —
    the state snapshot carries the dispatch tag.  A multistage state
    begins with its topology's [n] (always [>= 1]); a mesh state
    begins with a [0] word followed by a version byte, so every
    pre-mesh snapshot and WAL on disk decodes exactly as before and a
    mesh snapshot can never be misread as a fabric.

    Each engine's op semantics are written once, in {!execute}: replay
    ({!apply}), serving ({!Resp.execute_backend}) and the server's
    commit rule ({!committed}) all derive from its {!outcome}, so "the
    server commits an op iff replaying it succeeds" holds by
    construction. *)

module Network = Wdm_multistage.Network
module Mesh = Wdm_mesh.Mesh_network

type t = Net of Network.t | Mesh of Mesh.t

val kind : t -> string
(** ["multistage"] or ["mesh"], for logs and /readyz. *)

(** {1 Route codec} *)

val encode_route : Buffer.t -> Network.route -> unit
val decode_route : Wire.reader -> Network.route
(** The allocated-route sub-codec of the multistage state format, also
    used by {!Resp} for wire responses, so a route serializes
    identically in a snapshot file and on a control-plane socket.
    [decode_route] @raise Wire.Decode_error on malformed input. *)

(** {1 Mesh state codec} *)

val encode_mesh_state : Mesh.state -> string
val decode_mesh_state : string -> (Mesh.state, string) result
(** Arc edge ids and route costs are re-derived from the topology on
    decode, so the encoding stores only what replay cannot rebuild. *)

(** {1 Dispatch} *)

val is_mesh_state : string -> bool
(** Peeks the leading tag word. *)

val encode_state : t -> string
(** Deterministic byte encoding of the backend's current state. *)

val restore :
  ?telemetry:Wdm_telemetry.Sink.t -> string -> (t, string) result
(** Decode an {!encode_state} string and rebuild a live backend.
    Total: damaged bytes give [Error], never an exception.  A multistage
    state whose wavelength count exceeds 4096, or whose link planes
    would exceed 2{^20} words each ([r * m * ceil(k/62)]), is refused
    before anything is allocated — far above every shape this project
    builds. *)

(** {1 Op semantics} *)

type outcome =
  | Admitted of { route : Network.route; moved : int }
      (** a connect-like op was admitted; [moved] connections were
          rerouted to make room (always [0] for [Connect] and on a
          mesh) *)
  | Refused of Network.error  (** a connect-like op was refused *)
  | Released of Network.route  (** a disconnect succeeded *)
  | Release_failed of Network.disconnect_error
  | Fault_applied of { torn_down : int }
      (** an [Inject_fault] took effect, losing [torn_down] live routes *)
  | Fault_cleared  (** a [Clear_fault] took effect *)
  | Rejected of string
      (** the op could not be executed at all: an out-of-range fault on
          a fabric, or any fault op on a mesh, which has no switch
          fabric to fault *)
(** What one op did — the admission arms of {!Resp.t}, one to one.
    Mesh results are mapped onto the multistage vocabulary (see the
    adapters below). *)

val execute : t -> Op.t -> outcome
(** Executes one op.  On a fabric, [Connect] and [Repair] go through
    {!Network.connect} / {!Network.connect_rearrangeable}; on a mesh
    both are a plain connect.  Never raises on a bad op: fault
    validation errors come back as [Rejected]. *)

val apply : t -> Op.t -> (unit, string) result
(** Replay: {!execute}, then [Error] exactly when the outcome is
    [Release_failed] or [Rejected].  Refusals of [Connect] / [Repair]
    are [Ok] — the WAL records refused admissions too. *)

val committed : Op.t -> outcome -> Op.t option
(** The record the WAL and the replication stream carry for an op that
    executed with [outcome]: [None] exactly when {!apply} would fail
    on it (one such request would otherwise poison the WAL), and a
    [Repair] rewritten to carry the outcome it actually had
    ([rehomed] iff admitted). *)

val digest : t -> int
(** CRC32 of {!encode_state} — the recovery-check fingerprint. *)

(** {1 Mesh-to-wire adapters}

    The control-plane protocol speaks {!Network.route} /
    {!Network.error}; mesh results are mapped onto that vocabulary so
    clients, the response codec and checksums work unchanged.  A mesh
    route's arcs become hops: [middle] is the arc's tail node,
    [stage1_wl] the structure's wavelength, [serves] the single
    (head node, wavelength) pair. *)

val net_route_of_mesh : Mesh.route -> Network.route
val net_error_of_mesh : Mesh.error -> Network.error
val net_disconnect_error_of_mesh : Mesh.disconnect_error -> Network.disconnect_error
