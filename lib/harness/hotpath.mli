(** Synthetic single-path protocols for allocation accounting.

    The engine's zero-allocation contract ("the steady-state event loop
    allocates nothing") is only meaningful for a specific configuration:
    tracing off, an rng-free network policy, and a protocol whose
    handlers themselves allocate nothing.  {!pinger} is that protocol;
    {!ticker} isolates the timer path, which retains a small documented
    per-event cost.  [test/test_alloc.ml] pins both, and the benchmark
    suite reports the same slopes as [alloc_words_per_event] metrics. *)

(** Message-driven token ring: process [p] forwards an int counter to
    [(p + 1) mod n] forever.  Never decides, never sets timers. *)
val pinger : (int, unit) Sim.Engine.protocol

(** Timer-driven: every process re-arms a 0.1 s local-clock timer forever.
    Never decides, never sends. *)
val ticker : (unit, unit) Sim.Engine.protocol

(** [scenario ?n ~horizon ()] is the measurement scenario both protocols
    run under: [ts = 0], {!Sim.Network.deterministic_after_ts} (rng-free,
    loss-free once stable), tracing off, no faults, and
    [stop_on_all_decided = false] so the event count is a linear function
    of [horizon]. *)
val scenario : ?n:int -> horizon:float -> unit -> Sim.Scenario.t

(** [alloc_words_per_event protocol ~n ~horizon_lo ~horizon_hi] is the
    steady-state minor-heap words allocated per engine event: the same
    scenario is run at both horizons and the allocation difference is
    divided by the event-count difference, cancelling per-run setup cost.
    Requires [horizon_hi > horizon_lo] (raises [Invalid_argument] if the
    event counts do not separate). *)
val alloc_words_per_event :
  (_, _) Sim.Engine.protocol ->
  n:int ->
  horizon_lo:float ->
  horizon_hi:float ->
  float
