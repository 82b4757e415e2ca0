(** The replicated state machine behind the WAL, the snapshots and the
    server: either the paper's multistage fabric or a mesh RWA network.

    One WAL format, one op codec, one digest definition cover both —
    the state snapshot carries the dispatch tag.  A multistage state
    begins with its topology's [n] (always [>= 1]); a mesh state
    begins with a [0] word followed by a version byte, so every
    pre-mesh snapshot and WAL on disk decodes exactly as before and a
    mesh snapshot can never be misread as a fabric.

    The multistage state codec lives here (moved from {!Store}, which
    re-exports it) so the dispatching functions sit below {!Store} in
    the module order and recovery can restore either kind. *)

module Network = Wdm_multistage.Network
module Mesh = Wdm_mesh.Mesh_network

type t = Net of Network.t | Mesh of Mesh.t

val kind : t -> string
(** ["multistage"] or ["mesh"], for logs and /readyz. *)

(** {1 Multistage state codec} *)

val encode_net_state : Network.snapshot -> string
val decode_net_state : string -> (Network.snapshot, string) result
val encode_route : Buffer.t -> Network.route -> unit
val decode_route : Wire.reader -> Network.route

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
    would exceed 2{^20} words each ([r * m * ceil(k/62)] packed, or
    [r * m * k] for the reference representation), is refused before
    anything is allocated — far above every shape this project builds. *)

val apply : t -> Op.t -> (unit, string) result
(** Replay one op with {!Op.apply} semantics: refusals of [Connect] /
    [Repair] are [Ok] (the WAL records refused admissions too), a
    failed [Disconnect] or fault op is [Error].  Mesh backends refuse
    fault ops as [Error] — they cannot appear in a mesh WAL because
    the service layer never commits their [Server_error] responses. *)

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
