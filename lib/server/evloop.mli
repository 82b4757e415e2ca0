(** Readiness notification for the event-driven server core.

    A thin façade over two backends: [epoll] (Linux, via C stubs) and a
    portable [Unix.select] fallback.  The server's single loop thread
    registers every connection here and blocks in {!wait}; epoll keeps
    that O(ready) rather than O(watched), and — unlike [select] — has
    no FD_SETSIZE ceiling, which is what makes the 1k+ idle-connection
    target possible.

    Not thread-safe: exactly one thread (the event loop) may touch a
    [t].  Level-triggered on both backends — an fd keeps reporting
    ready until its condition is consumed or its interest cleared. *)

type t

val create : unit -> t
(** Picks [epoll] when the kernel offers it, [select] otherwise. *)

val backend_name : t -> string
(** ["epoll"] or ["select"]. *)

val available_backend : unit -> string
(** The backend {!create} would pick right now, without keeping one. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Start watching an fd.  No-op if already registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change interest.  Skips the syscall when nothing changed; no-op on
    unregistered fds. *)

val remove : t -> Unix.file_descr -> unit
(** Stop watching.  Call before closing the fd. *)

val registered : t -> Unix.file_descr -> bool

val wait : t -> timeout_ms:int -> (Unix.file_descr * bool * bool) list
(** Block up to [timeout_ms] for events; [(fd, readable, writable)]
    per ready descriptor.  Error/hangup conditions are folded into
    both flags so the caller's read or write attempt surfaces the
    failure.  EINTR and timeouts both return [[]]. *)

val close : t -> unit
(** Release the backend (closes the epoll fd).  The watched fds are
    the caller's to close. *)

val ensure_fd_capacity : int -> int
(** Raise [RLIMIT_NOFILE]'s soft limit toward the argument (capped at
    the hard limit) and return the soft limit now in force, or [-1]
    when the limit cannot be read.  Used by the idle-connection soak
    and the serving bench, which hold >1k sockets in one process. *)
