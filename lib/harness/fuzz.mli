(** Randomized fault-injection fuzzing with counterexample shrinking.

    A campaign draws admissible {!Fuzz_scenario.t} values from a seeded
    generator, runs each against its protocol with tracing on, and
    checks the resulting trace with {!Invariants} plus a liveness
    deadline derived from the paper's bounds.  Every violating scenario
    is delta-debugged down to a minimal deterministic counterexample
    suitable for the regression corpus in [test/corpus/].

    Determinism: scenario [i] of a campaign is a pure function of
    [(seed, i)] and shrinking re-runs are themselves deterministic, so a
    campaign's {!summary} is identical whatever the
    {!Measure.domain_count} it fans out over. *)

(** {2 Running and checking one scenario} *)

(** The checked result of one run.  [violations] lists the trace
    invariant violations (agreement, validity, causality, ...) followed
    by any {!liveness} violation; a scenario "fails" when this list is
    non-empty. *)
type outcome = {
  violations : Invariants.violation list;
  decided : int;  (** processes that decided *)
  events : int;  (** engine events processed *)
  msgs_sent : int;
  msgs_delivered : int;
  msgs_dropped : int;
}

(** [run_one s] executes [s] (compiling its injections for its protocol)
    and checks it.  The liveness check covers processes alive at the
    horizon whose deadline [max ts (last restart) + budget] falls at or
    before the horizon; for the round-based baselines it is restricted
    to never-faulty processes (the paper bounds restart recovery only
    for the modified algorithms).  Violations of it carry
    [check = "liveness"].

    Raises [Invalid_argument] when [s] fails {!Fuzz_scenario.validate}. *)
val run_one : Fuzz_scenario.t -> outcome

(** {2 Generation} *)

(** The protocols a campaign without [?protocol] draws from: every
    protocol of {!Protocols.table} marked correct, in table order. *)
val default_protocols : Fuzz_scenario.protocol list

(** [generate ~seed ~index ?protocol ()] draws scenario [index] of
    campaign [seed] — a pure function of its arguments.  The scenarios
    are admissible by construction (crashes only before [ts], at most
    [ceil n/2 - 1] ever-faulty processes, feasible [rho], obsolete
    injections only where the model permits them: high sessions only
    against [Ungated_paxos]) and always pass {!Fuzz_scenario.validate}. *)
val generate :
  ?protocol:Fuzz_scenario.protocol ->
  seed:int64 ->
  index:int ->
  unit ->
  Fuzz_scenario.t

(** {2 Shrinking} *)

type shrink_result = {
  shrunk : Fuzz_scenario.t;
  steps : int;  (** accepted shrink steps *)
  tries : int;  (** candidate scenarios executed *)
}

(** [shrink s ~check] greedily minimizes {!Fuzz_scenario.size}: it
    tries removing injections (in halving chunks, then singly), fault
    events, initially-down entries, network structure
    ({!Sim.Network_spec.shrink}) and clock drift, accepting a candidate
    iff it still validates and {!run_one} still reports a violation of
    [check].  The result never has a larger size than [s], and equal
    inputs give equal results.  [max_tries] (default [500]) bounds the
    candidate executions. *)
val shrink :
  ?max_tries:int -> Fuzz_scenario.t -> check:string -> shrink_result

(** {2 Campaigns} *)

type counterexample = {
  index : int;  (** campaign index that produced it *)
  check : string;  (** violated invariant *)
  detail : string;  (** from the original (unshrunk) failure *)
  scenario : Fuzz_scenario.t;  (** shrunk *)
  original_size : int;
  shrunk_size : int;
  shrink_tries : int;
}

type summary = {
  seed : int64;
  budget : int;
  protocol : Fuzz_scenario.protocol option;  (** [None] = default mix *)
  runs : int;
  failures : int;  (** runs with at least one violation *)
  by_check : (string * int) list;  (** failing runs per check, sorted *)
  counterexamples : counterexample list;  (** by campaign index *)
  total_events : int;
  total_msgs : int;
  total_decided : int;
  total_shrink_tries : int;
}

(** [campaign ~budget ~seed ()] generates and checks scenarios
    [0 .. budget-1], shrinking every failure, fanned out with
    {!Measure.par_map}.  The summary is a pure function of
    [(budget, seed, protocol)] — identical at any domain count. *)
val campaign :
  ?protocol:Fuzz_scenario.protocol ->
  budget:int ->
  seed:int64 ->
  unit ->
  summary

(** Render a summary (no wall-clock content; byte-stable). *)
val pp_summary : Format.formatter -> summary -> unit

(** Fold a campaign's counters into a metrics registry under
    [fuzz_runs], [fuzz_failures], [fuzz_counterexamples],
    [fuzz_shrink_tries], [fuzz_events], [fuzz_msgs]. *)
val register_metrics : Sim.Registry.t -> summary -> unit

(** {2 Corpus files}

    A corpus entry is the JSON object
    [{format = "consensus-fuzz-corpus/1"; check; detail; scenario}];
    see [test/corpus/README.md]. *)

type corpus_entry = {
  format : string;
  check : string;  (** invariant the scenario must violate on replay *)
  detail : string;  (** diagnostic from the run that produced it *)
  scenario : Fuzz_scenario.t;
}

val corpus_format : string

val entry_of_counterexample : counterexample -> corpus_entry

val entry_to_json : corpus_entry -> Sim.Json.t

val entry_of_json : Sim.Json.t -> (corpus_entry, string) result

(** Write the entry into [dir] (created, with parents, if missing)
    as [<check>-<scenario name>.json]; returns the path. *)
val save_entry : dir:string -> corpus_entry -> string

val load_entry : string -> (corpus_entry, string) result

(** Re-execute the entry's scenario and check that the recorded
    invariant is violated again.  [Ok outcome] when it reproduces;
    [Error (what_we_saw, outcome)] when the run no longer violates
    [entry.check]. *)
val replay : corpus_entry -> (outcome, string * outcome) result
