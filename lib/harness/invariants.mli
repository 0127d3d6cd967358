(** Trace-driven invariant checking.

    Every check here is computed from a {!Sim.Trace.t} alone, so it
    applies equally to a live {!Sim.Engine} run, a
    {!Realtime.Netio_engine} run, or a trace re-imported from JSONL.
    The checks:

    - {b agreement}: all [Decide] entries carry the same value;
    - {b decide-once}: no process decides twice;
    - {b validity} (when [proposals] is given): every decided value was
      proposed by someone;
    - {b message causality}: a [Deliver] (or receiver-down [Drop]) with a
      non-negative id must be preceded by the [Send] that minted that id,
      with matching endpoints and a send time no later than the delivery;
    - {b session monotonicity}: ["session:<k>:<how>"] notes — the
      modified algorithms' session-entry markers — are strictly
      increasing per process;
    - {b timer sanity}: timers never fire without a due [Timer_set] and
      are never set to fire in the past;
    - {b sigma-timer bound} (when [timer_bounds] is given): session
      timers (non-negative tags) run for a real duration inside
      [\[4 delta, sigma\]], the window Section 4 of the paper requires.

    Causality and timer-sanity checks are skipped when a bounded trace
    has wrapped ({!Sim.Trace.dropped_oldest} > 0), since the origin
    entries may have been overwritten. *)

type violation = {
  check : string;  (** which invariant, e.g. ["agreement"] *)
  detail : string;  (** human-readable description of the failure *)
}

type report = {
  entries_checked : int;  (** retained entries examined *)
  wrapped : bool;  (** bounded ring wrapped: causality checks skipped *)
  violations : violation list;  (** trace order *)
}

(** No violations found. *)
val ok : report -> bool

(** One line when clean; one line per violation otherwise. *)
val pp : Format.formatter -> report -> unit

(** [check ?proposals ?timer_bounds trace] runs every applicable check.
    [proposals] enables the validity check (omit it when decisions are
    not proposal values, e.g. SMR log checksums); [timer_bounds] is
    [(delta, sigma)] and enables the sigma-timer bound (only meaningful
    for the modified algorithms' session timers). *)
val check :
  ?proposals:int array ->
  ?timer_bounds:float * float ->
  Sim.Trace.t ->
  report

(** [check_run r] checks a simulator run's trace, taking proposals from
    its scenario.  Pass [~check_validity:false] for protocols whose
    decided values are not proposals. *)
val check_run :
  ?timer_bounds:float * float ->
  ?check_validity:bool ->
  'st Sim.Engine.run_result ->
  report
