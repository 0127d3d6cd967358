(** A real-time executor for the same protocol records the simulator
    runs, hosted on one {!Netio} loop.

    Where {!Sim.Engine} interprets a protocol over virtual time, this
    executor runs it on the wall clock: every boot, message delivery,
    timer, fault and the deadline is a {!Netio.after} closure on a
    single loop that opens no sockets, so handlers run one at a time on
    the calling thread.  Nothing about a protocol implementation
    changes: it receives the same {!Sim.Runtime.ctx} capabilities.  The
    same loop hosts the live replica ([serve]).

    The run is described by the same {!Sim.Scenario.t} the simulator
    takes, read in wall-clock seconds from the start of the run:
    - {b network}: every send asks [sc.network] for the message's fate
      (drop, or one delivery per returned delay), so eventual synchrony,
      silence before [ts] and duplication mean what they mean in the
      simulator.  Delays are met up to scheduling jitter — a handler
      that runs long delays every closure due behind it, so treat
      [delta] below a few milliseconds as unreliable on a loaded
      machine;
    - {b faults}: processes in [initially_down] never boot; a crash
      wipes volatile state and voids pending timers, a message arriving
      while its receiver is down is dropped, and a restart hands
      [on_restart] the last [persist]ed state ({!Sim.Stable_storage});
    - {b horizon and stop rule}: the run ends at [sc.horizon], or
      earlier when [stop_on_all_decided] holds, no fault is pending and
      every up process has decided — the simulator's rule;
    - {b trace}: recorded when [record_trace] is set, into a ring of
      [trace_capacity] entries ([0] = unbounded; long runs should bound
      it).

    The result is the simulator's {!Sim.Engine.run_result}, so the same
    checks apply ({!Sim.Engine.all_decided}, [Harness.Measure],
    [Harness.Invariants]); its times are wall-clock seconds from run
    start and [events_processed] counts the closures that ran.

    Limits, by design: wall-clock runs are not reproducible (the seed
    fixes the network's and processes' draws, not the scheduling), the
    clocks do not drift, and there is no way to inject obsolete
    messages.  The executor exists to demonstrate — and test — that the
    protocol layer is not simulator-bound, not to replace the simulator
    for experiments. *)

(** [run sc protocol] blocks until the run ends (see above).  Raises
    [Invalid_argument] when [sc] fails {!Sim.Scenario.validate} or sets
    [rho <> 0]. *)
val run :
  Sim.Scenario.t ->
  ('msg, 'state) Sim.Runtime.protocol ->
  'state Sim.Engine.run_result
