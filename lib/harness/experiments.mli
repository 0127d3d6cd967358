(** The reproduction experiments.

    The paper is analytical — it has no numbered tables or figures — so
    each experiment regenerates one of its quantitative claims (see
    DESIGN.md section 4 for the index).  Every experiment validates
    agreement and validity on every run it performs; a violation shows
    up in the table notes and in {!Report.table} rows as ["NO"]. *)

type speed = Quick | Full

(** Every table, in order: E1–E11 then the ablations A1–A4 (what each
    regenerates is documented at its definition and in DESIGN.md
    section 4). *)
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
