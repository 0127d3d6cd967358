(** A real-time executor for the same protocol records the simulator
    runs, hosted on one {!Netio} loop.

    Where {!Sim.Engine} interprets a protocol over virtual time, this
    executor runs it on the wall clock: every boot, message delivery,
    timer and fault is a {!Netio.after} closure on a single loop that
    opens no sockets, so handlers run one at a time on the calling
    thread.  Nothing about a protocol implementation changes: it
    receives the same {!Sim.Runtime.ctx} capabilities.  The same loop
    hosts the live replica ([serve]).

    The network model mirrors the simulator's eventual synchrony:
    before [ts] (seconds from the start of the run) messages are dropped
    with probability [pre_loss] or delayed up to [4 * delta]; from [ts]
    on, every message is delivered within [delta] (plus scheduling
    jitter — a handler that runs long delays every closure due behind
    it, so treat [delta] below a few milliseconds as unreliable on a
    loaded machine).

    Limitations compared to the simulator, by design: wall-clock runs
    are not reproducible and there are no drifting clocks ([rho = 0]).
    Tracing (when [record_trace] is set) goes into a {e bounded} ring of
    {!val:trace_capacity} entries, so long runs keep constant memory at
    the cost of losing the oldest events; entry times are wall-clock
    seconds from run start.  The executor exists to demonstrate — and
    test — that the protocol layer is not simulator-bound, not to
    replace the simulator for experiments. *)

type fault = Crash of float * int | Restart of float * int
    (** (wall-clock seconds from start, process) *)

type config = {
  n : int;
  delta : float;  (** post-[ts] delivery bound, seconds *)
  ts : float;  (** stabilization instant, seconds from run start *)
  duration : float;  (** hard stop, seconds *)
  pre_loss : float;  (** pre-[ts] drop probability, [0..1] *)
  seed : int64;  (** seeds the delay/loss draws *)
  faults : fault list;
      (** crash wipes volatile state and voids pending timers; a message
          arriving while the process is down is dropped; restart resumes
          from the last [persist]ed state — same semantics as the
          simulator, on wall time *)
  record_trace : bool;
      (** record a bounded structured trace of the run *)
}

(** Ring-buffer bound for realtime traces (retained entries). *)
val trace_capacity : int

type result = {
  decisions : (float * int) option array;
      (** per process: (wall-clock seconds from run start, value) *)
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  elapsed : float;
  agreement_violation : bool;
  trace : Sim.Trace.t;
      (** bounded trace of the run (empty when [record_trace] is off) *)
  metrics : Sim.Registry.t;
      (** same counter/histogram names as the simulator's {!Sim.Engine} *)
}

(** [run cfg ~proposals protocol] blocks until every fault has fired and
    every process has decided, or [cfg.duration] elapses.  Raises
    [Invalid_argument] on a bad config. *)
val run :
  config ->
  proposals:int array ->
  ('msg, 'state) Sim.Runtime.protocol ->
  result
