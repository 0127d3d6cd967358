(** The reproduction experiments.

    The paper is analytical — it has no numbered tables or figures — so
    each experiment regenerates one of its quantitative claims (see
    DESIGN.md section 4 for the index).  Every experiment validates
    agreement and validity on every run it performs; a violation shows
    up in the table notes and in {!Report.table} rows as ["NO"]. *)

type speed = Quick | Full

(** Modified Paxos decides by [TS + eps + 3 tau + 5 delta], independent
    of [N] (Section 4, proof step 8). *)
val e1 : ?speed:speed -> unit -> Report.table

(** Traditional Paxos is delayed [O(N delta)] by obsolete high ballots
    (Section 2). *)
val e2 : ?speed:speed -> unit -> Report.table

(** Rotating-coordinator round-based consensus needs [O(N delta)] when
    the [⌈N/2⌉-1] first coordinators are faulty (Section 3). *)
val e3 : ?speed:speed -> unit -> Report.table

(** A process that restarts after [TS] decides within [O(delta)] of its
    restart (Section 4, "Process Restarts"). *)
val e4 : ?speed:speed -> unit -> Report.table

(** Modified B-Consensus also decides within [O(delta)] of [TS],
    "about the same" as modified Paxos (Section 5). *)
val e5 : ?speed:speed -> unit -> Report.table

(** Message-complexity vs decision-latency trade-off in [epsilon]
    (Section 4, "Reducing Message Complexity"). *)
val e6 : ?speed:speed -> unit -> Report.table

(** Stable case: with phase 1 pre-executed, decision within 3 message
    delays (Section 4, "Reducing Message Complexity"). *)
val e7 : ?speed:speed -> unit -> Report.table

(** Sensitivity to the session-timeout upper bound [sigma] (enters the
    bound through [tau = max (2 delta + eps) sigma]). *)
val e8 : ?speed:speed -> unit -> Report.table

(** Tolerance of clock-rate error [rho] while the timer window
    [[4 delta, sigma]] stays feasible. *)
val e9 : ?speed:speed -> unit -> Report.table

(** State machine replication (lib/smr): with phase 1 pre-executed for
    all instances, a stable leader commits each command within 3 message
    delays (Section 4, "Reducing Message Complexity"). *)
val e10 : ?speed:speed -> unit -> Report.table

(** A concrete heartbeat-based leader elector stabilizes in O(delta)
    after TS only without obsolete heartbeats; stale heartbeats from dead
    low-id processes delay it O(N delta) — the Section 3 remark about
    leader-based algorithms, made executable. *)
val e11 : ?speed:speed -> unit -> Report.table

(** Ablation: dropping the session gate (condition (ii) of Start
    Phase 1) re-opens the [O(N delta)] obsolete-ballot attack. *)
val a1 : ?speed:speed -> unit -> Report.table

(** Ablation: oracle hold-backs shorter than [2 delta] break same-order
    delivery and slow modified B-Consensus down. *)
val a2 : ?speed:speed -> unit -> Report.table

(** Ablation: with round jumping disabled (the original B-Consensus
    shape) a straggler executes every round in order and its catch-up
    grows with how far behind it is (Section 5, last paragraph). *)
val a3 : ?speed:speed -> unit -> Report.table

(** Ablation: without the progress gate the SMR layer's leadership
    churns every session timeout even in a healthy system (the gate is
    this repository's realization of the paper's "same behavior as
    normal Paxos in the stable case"; see DESIGN.md 4b.5). *)
val a4 : ?speed:speed -> unit -> Report.table

(** All of the above, in order. *)
val all : ?speed:speed -> unit -> Report.table list

(** The headline comparison as a chartable (label, worst-latency) series:
    each algorithm under its worst admissible adversary, per cluster
    size.  Feed to {!Report.bar_chart}. *)
val headline : ?speed:speed -> unit -> (string * float) list

(** Look an experiment up by id ("e1" ... "a4", case-insensitive). *)
val by_id : string -> (?speed:speed -> unit -> Report.table) option

val ids : string list

(** {1 Representative runs}

    Each experiment names one row of its own table as its
    representative: the first seed of that row, built by the same run
    function, with the same arguments, as the table uses.  The rows are

    - E1: n = 9, session-1 obsolete ballots (deterministic net);
    - E2: n = 9; E3: n = 9;
    - E4: restart at TS + 20 delta;
    - E5: n = 9, silent pre-TS net;
    - E6: epsilon = delta, the latency run;
    - E7: phase 1 pre-executed;
    - E8: sigma = 8 delta; E9: rho = 0.05;
    - E10: stable from the start;
    - E11: n = 9 under stale heartbeats;
    - A1: n = 9, ungated; A2: hold-back 0.5 delta;
    - A3: 25 delta isolation, without jumping;
    - A4: progress gate off. *)

(** [representative id] runs the representative row of [id]
    (case-insensitive); [None] for unknown ids.  The result's
    [final_states] are erased.  [record_trace] does not change the run,
    only whether its trace is kept. *)
val representative :
  string -> (record_trace:bool -> unit Sim.Engine.run_result) option

(** {1 Aggregate run metrics}

    Every experiment folds each run's {!Sim.Registry} into a
    process-wide collector (mutex-guarded: experiment bodies execute on
    {!Measure} worker domains).  Since only commutative sums and bucket
    counts are accumulated, the snapshot is byte-identical whatever
    [SIM_DOMAINS] is. *)

(** Clear the process-wide metrics collector. *)
val reset_metrics : unit -> unit

(** A copy of everything collected since the last {!reset_metrics}. *)
val metrics_snapshot : unit -> Sim.Registry.t

(** {1 Traced replays}

    The representative run of an experiment, with tracing on.  This is
    what the [consensus_sim trace] subcommand replays and what the
    invariant tests check. *)

type replay = {
  replay_id : string;  (** lower-cased experiment id *)
  scenario : Sim.Scenario.t;  (** the scenario that was run *)
  trace : Sim.Trace.t;  (** full structured trace (recording on) *)
  metrics : Sim.Registry.t;  (** the run's counters and histograms *)
  proposals : int array option;
      (** [Some] when decided values are proposals (validity applies) *)
  timer_bounds : (float * float) option;
      (** [(delta, sigma)] for modified-Paxos runs: session timers must
          stay inside [[4 delta, sigma]] *)
  invariants : Invariants.report;  (** checker verdict on the trace *)
}

(** [replay id] runs the first seed of the named table row (see
    {!representative}) for [id] (case-insensitive) with tracing on, and
    checks its trace; [None] for unknown ids. *)
val replay : string -> replay option
