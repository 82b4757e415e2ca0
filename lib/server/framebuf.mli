(** Per-connection receive buffer with incremental frame decoding.

    The event loop ({!Server}) reads whatever the kernel has into a
    scratch buffer and appends it here; {!next_frame} then yields zero
    or more complete {!Wdm_persist.Wire} CRC32-framed records without
    ever blocking.  The same accumulator doubles as a raw byte buffer
    for the 8-byte hello handshake and for HTTP request heads
    ({!take} / {!index}). *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty buffer.  [capacity] is the initial allocation (bytes);
    the buffer grows geometrically as needed. *)

val length : t -> int
(** Bytes currently buffered and not yet consumed. *)

val add_subbytes : t -> Bytes.t -> off:int -> len:int -> unit
(** Append [len] bytes of [src] starting at [off]. *)

val add_string : t -> string -> unit

val take : t -> int -> string
(** Consume and return the first [n] buffered bytes.
    @raise Invalid_argument if fewer than [n] bytes are buffered. *)

val contents : t -> string
(** The buffered bytes, without consuming them. *)

val index : t -> char -> int option
(** Offset of the first occurrence of a byte, if buffered. *)

type frame =
  | Frame of string  (** one complete, CRC-verified payload, consumed *)
  | Bad of string  (** framing damage — the stream is unrecoverable *)
  | Need of int  (** at least [n] more bytes must arrive first *)

val next_frame : t -> frame
(** Try to decode one frame off the front of the buffer.  [Frame] and
    [Bad] follow {!Protocol.recv} semantics; [Need] is the streaming
    third case that a blocking reader never sees. *)
