(** Control-plane requests and responses, in the WAL's dialect.

    The server speaks the persistence layer's language: a request is
    one CRC32-framed {!Op} payload (plus two read-only control
    requests in a reserved tag range), a response is one framed value
    of {!t}.  Reusing the {!Op} and {!Backend} sub-codecs means a bench
    trace, a WAL record and a network request are interchangeable
    byte strings — anything that can replay a WAL can drive a server,
    and vice versa.

    DESIGN.md §9 documents the full wire exchange (header handshake,
    frame layout, batching semantics). *)

module Network = Wdm_multistage.Network

(** {1 Requests} *)

type request =
  | Admit of Op.t
      (** a state-changing op, encoded exactly as in the WAL
          (tags 1-5) *)
  | Get_digest
      (** whole-state fingerprint ({!Backend.digest}) of the live
          network — tag [0xF1] *)
  | Get_stats
      (** server-side telemetry snapshot as JSON — tag [0xF2] *)
  | Promote
      (** ask a follower to become the leader — tag [0xF3]; answered
          with {!t.Promoted} by a follower, [Server_error] by a node
          that is already the leader *)
  | Batch of request list
      (** pipelining: up to {!max_batch} requests carried in one frame
          — tag [0xF4] — executed in order and answered with a single
          {!t.Batch_reply} of the same arity.  Nesting is rejected at
          both encode and decode. *)

val max_batch : int
(** Upper bound on {!request.Batch} arity (and [Batch_reply]'s). *)

val encode_request : Buffer.t -> request -> unit
(** @raise Invalid_argument on an oversized or nested [Batch]. *)

val decode_request : Wire.reader -> request
(** Consumes exactly one request.  @raise Wire.Decode_error on
    malformed input, including nested or oversized batches. *)

(** {1 Responses} *)

type t =
  | Admitted of { route : Network.route; moved : int }
      (** a connect-like op was admitted; [moved] is the number of
          existing connections rerouted to make room (always [0] for
          plain [Connect]) *)
  | Refused of Network.error  (** a connect-like op was refused *)
  | Released of Network.route  (** a disconnect succeeded *)
  | Release_failed of Network.disconnect_error
  | Fault_applied of { torn_down : int }
      (** an [Inject_fault] took effect; [torn_down] live routes were
          lost to it *)
  | Fault_cleared  (** a [Clear_fault] took effect *)
  | Digest_is of int
  | Stats_json of string
  | Server_error of string
      (** the request could not be executed at all (malformed frame,
          out-of-range fault indices, ...); the payload is
          human-readable *)
  | Not_leader of { leader : string }
      (** a follower refusing a state-changing request; [leader] is
          the address to retry against when the follower knows it
          ([""] otherwise) *)
  | Promoted of { seq : int }
      (** a follower accepted {!request.Promote} and now leads, with
          [seq] ops applied *)
  | Batch_reply of t list
      (** tag [12]: one response per request of a {!request.Batch}, in
          request order — the pipelined path's single coalesced answer *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : Buffer.t -> t -> unit

val decode : Wire.reader -> t
(** @raise Wire.Decode_error on malformed input. *)

val decode_string : string -> (t, string) result
(** Decodes a whole payload; trailing bytes are an error. *)

(** {1 Execution} *)

val of_outcome : Backend.outcome -> t
(** One to one: [Rejected] answers [Server_error], every other arm its
    namesake. *)

val execute_backend :
  ?stats:(unit -> string) -> Backend.t -> request -> t
(** The request semantics the loopback equivalence tests share with
    the server.  [Admit op] answers {!of_outcome} of
    {!Backend.execute}: on either engine [Connect] and [Repair] answer
    [Admitted]/[Refused], [Disconnect] [Released]/[Release_failed], and
    fault ops [Fault_applied]/[Fault_cleared] — or [Server_error] for an
    out-of-range fault, and for every fault op on a mesh.  A bad
    request must not take the server down, and the server never
    commits a [Server_error] or [Release_failed] answer
    ({!Backend.committed}), so neither can reach a WAL.

    [Get_digest] answers with {!Backend.digest} and [Get_stats] with
    [stats ()] (default: ["{}"] — the server passes its metrics
    renderer).  [Promote] answers [Server_error]: promotion changes a
    server's role, not network state, so the server intercepts it
    before this function ever sees it.  [Batch] maps [execute_backend]
    over its requests and answers [Batch_reply] — the server instead
    unrolls batches itself so each sub-op hits the WAL and replication
    stream individually. *)
