(** Shared measurement and safety-checking helpers for experiments. *)

(** Worst decision latency among [procs], in units of [delta], measured
    from [from_time] (usually [TS]; pass a restart instant for restart
    experiments).  [Float.infinity] if any of [procs] did not decide. *)
val worst_latency :
  'st Sim.Engine.run_result ->
  procs:int list ->
  from_time:Sim.Sim_time.t ->
  delta:float ->
  float

(** Mean decision latency among deciders in [procs] (delta units). *)
val mean_latency :
  'st Sim.Engine.run_result ->
  procs:int list ->
  from_time:Sim.Sim_time.t ->
  delta:float ->
  float

(** Agreement (all decided values equal) and validity (every decided
    value was somebody's proposal).  [Error msg] names the violation. *)
val check_safety : 'st Sim.Engine.run_result -> (unit, string) result

(** Process ids [0 .. n-1] minus [except]. *)
val procs : n:int -> ?except:int list -> unit -> int list

(** Fold [f] over [seeds] distinct seeds derived from [base]. *)
val over_seeds : seeds:int -> base:int64 -> (int64 -> 'a) -> 'a list

(** {2 Parallel sweeps}

    Every {!Sim.Engine.run} is a self-contained deterministic function
    of its scenario, so sweeps fan out across a {!Sim.Domain_pool} and
    collect results by submission index: the output of {!par_map} is the
    output of [List.map], whatever the pool size. *)

(** Number of domains sweeps use: [SIM_DOMAINS] if set to a positive
    integer ([1] = the serial path), otherwise
    [Domain.recommended_domain_count]; a surrounding {!with_domains}
    overrides both. *)
val domain_count : unit -> int

(** [par_map f xs] is [List.map f xs] computed on {!domain_count}
    domains (shared process-wide pool, created on first use).  Nested
    calls (from inside a task) run serially on the calling domain. *)
val par_map : ('a -> 'b) -> 'a list -> 'b list

(** [with_domains n f] runs [f ()] with the pool size forced to [n]
    (restored afterwards) — the hook the determinism regression test
    uses to compare [n = 1] against [n >= 4] in one process. *)
val with_domains : int -> (unit -> 'a) -> 'a
