(** Socket readiness and timers for the real-process cluster.

    A {!t} is a single-threaded [Unix.select] loop owning a set of
    nonblocking TCP connections, listeners, and one-shot closure
    timers.  Reads and writes are fully buffered: {!send} never blocks
    (bytes queue until the socket is writable), and incoming bytes
    accumulate in a per-connection buffer that the [on_data] callback
    consumes incrementally via {!input}/{!consume} — the natural shape
    for {!Smr.Wire}-framed traffic.

    This module is part of [lib/realtime], the only layer permitted to
    read the wall clock (lint R1); code above it takes time from
    {!now}/{!wall}. *)

type t

type conn

val create : unit -> t
(** Also ignores [SIGPIPE] process-wide: a peer that vanishes must
    surface as a closed connection, not a fatal signal. *)

val wall : unit -> float
(** Wall-clock seconds since the epoch (for trace stamps). *)

val resolve : string -> Unix.inet_addr
(** Numeric IPv4 literal or hostname (first address).  Raises
    [Not_found] when the name does not resolve. *)

val now : t -> float
(** Seconds since [create] — the loop's time base; timers use it. *)

val set_limits : t -> ?partial_timeout:float -> ?max_input:int -> unit -> unit
(** Connection hardening.  [partial_timeout] closes a connection whose
    unconsumed input has sat in the buffer for longer than that many
    seconds — a peer that sends 11 of 12 header bytes and stalls (or
    drip-feeds without ever completing a frame: arrival of more bytes
    does {e not} reset the clock, only consuming everything does).
    [max_input] closes a connection whose unconsumed input grows past
    that many bytes.  Omitted arguments disable the corresponding
    check; both default to off.  Drops are counted as
    [netio_partial_timeouts] / [netio_input_overflows] when a registry
    is attached via {!set_registry}.  Raises [Invalid_argument] on a
    non-positive timeout or bound. *)

val set_registry : t -> Sim.Registry.t -> unit
(** Attach a metrics registry; the loop increments [netio_*] counters
    ([netio_partial_timeouts], [netio_input_overflows],
    [netio_accept_backoffs]) as it drops connections or backs off a
    listener. *)

val listen :
  t -> host:string -> port:int -> on_accept:(conn -> unit) -> int
(** Bind and listen; returns the actual port (useful with [port:0]).
    Raises [Unix.Unix_error] if the bind fails. *)

val connect : t -> host:string -> port:int -> conn
(** Nonblocking connect.  The connection is usable immediately — writes
    buffer until the connect completes; a refused connect surfaces as
    [on_close]. *)

val set_callbacks :
  conn -> on_data:(conn -> unit) -> on_close:(conn -> unit) -> unit
(** [on_data] fires after new bytes were appended to the input buffer;
    [on_close] fires exactly once, on EOF, error, or {!close}. *)

val conn_id : conn -> int
(** Loop-unique id, for keying tables without physical equality. *)

val send : t -> conn -> Bytes.t -> unit
(** [enqueue] then {!flush}: the bytes join any queued output and the
    whole queue goes out in one write. *)

val enqueue : conn -> Bytes.t -> unit
(** Append bytes to the connection's output region without writing
    (the bytes are copied; the caller may reuse its buffer).  Frames
    enqueued between two flushes leave in a single write.  No-op on a
    closed connection. *)

val enqueue_sub : conn -> Bytes.t -> int -> int -> unit
(** [enqueue_sub c buf off len] is {!enqueue} of the range
    [buf.[off, off + len)], without copying it out first.  Raises
    [Invalid_argument] when the range is not inside [buf]. *)

val flush : t -> conn -> unit
(** Issue one write over everything queued (no-op when nothing is, or
    while a nonblocking connect is still pending).  Whatever the socket
    does not take — a full send buffer, or more than one write call
    carries — stays queued, and the loop resumes it when select reports
    the socket writable.  A write error closes the connection. *)

val closing : conn -> bool
(** True once the connection has been closed (callbacks may race a
    close; check before continuing to consume input). *)

val input : conn -> Bytes.t * int * int
(** [(buf, pos, avail)] — the unconsumed input region.  Valid until the
    next loop iteration; decode from it, then {!consume}. *)

val consume : conn -> int -> unit
(** Discard [n] bytes from the front of the input region. *)

val close : t -> conn -> unit
(** Close now; pending unwritten output is dropped. *)

val after : t -> float -> (unit -> unit) -> unit
(** One-shot timer: run the closure [delay] seconds from now. *)

val step : t -> float -> unit
(** One select iteration with the given timeout ceiling: fire due
    timers, poll readiness, dispatch callbacks. *)

val run : t -> unit
(** [step] until {!stop}. *)

val stop : t -> unit
(** Stop {!run} from any thread or signal handler (self-pipe wakeup). *)

val shutdown : t -> unit
(** Close every connection, listener, and the wakeup pipe. *)

(**/**)

module Private : sig
  (** Test hooks — not part of the public surface. *)

  val sabotage_listeners : t -> unit
  (** Make every listener's accept fail persistently (ENOTSOCK) while
      its fd stays readable, reproducing the fd-exhaustion shape that
      triggers accept backoff. *)

  val paused_listeners : t -> int
  (** Number of listeners currently inside their backoff window. *)

  val writes : t -> int
  (** Write calls issued on connections since [create] (successful,
      short, or failed). *)

  val out_capacity : conn -> int
  (** Current size of the connection's output region in bytes. *)
end
