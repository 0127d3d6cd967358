(** Named counters and fixed-bucket histograms, one registry per run.

    The engine maintains one registry per simulated run (counting
    messages sent/delivered/dropped per process, decisions, and the
    decision-latency histogram in units of [delta]); protocols add their
    own counters through [Runtime.ctx.count].

    A registry is mutated from a single domain — each simulated run is
    sequential — and aggregated across [Domain_pool] workers with
    {!merge_into} on the caller's domain, so no internal locking is
    needed or provided.  Callers that share one accumulator across
    domains (e.g. the experiment harness) must guard {!merge_into} with
    their own mutex. *)

type t

val create : unit -> t

(** [inc t name] bumps counter [name] by [by] (default 1); [?proc]
    additionally attributes the increment to that process id (negative
    ids are counted in the total only). *)
val inc : ?proc:int -> ?by:int -> t -> string -> unit

(** A pre-resolved counter.  {!inc} performs a [Hashtbl] lookup (and an
    [option] allocation) per call; hot paths resolve the counter once
    with {!handle} and bump it with {!inc_handle}, which allocates
    nothing. *)
type handle

(** [handle ?procs t name] resolves (creating if needed) counter [name].
    [procs] pre-sizes the per-process array for ids [0..procs-1] so
    later increments never grow it. *)
val handle : ?procs:int -> t -> string -> handle

(** [inc_handle h ~proc] bumps the counter by 1, attributing to [proc]
    unless [proc] is negative.  Allocation-free once the per-process
    array covers [proc]. *)
val inc_handle : handle -> proc:int -> unit

(** Total for a counter; [0] if it was never incremented. *)
val counter_total : t -> string -> int

(** Per-process totals for a counter (a fresh array indexed by process
    id; may be shorter than [n] if high ids never incremented). *)
val counter_per_proc : t -> string -> int array

(** [observe t name v] adds sample [v] to histogram [name], creating it
    with [?buckets] on first use (default: decision-latency bounds in
    [delta] units, 1, 2, 4, ... 100).
    [buckets] are strictly-increasing upper bounds; samples above the
    last bound land in an overflow bucket. *)
val observe : ?buckets:float array -> t -> string -> float -> unit

(** [quantile t name q] estimates the [q]-quantile as the upper bound of
    the bucket containing the rank-[ceil q*n] sample.  [None] if the
    histogram is absent or empty. *)
val quantile : t -> string -> float -> float option

(** [merge_into ~dst src] adds all of [src]'s counters and histograms
    into [dst].  Histograms merge bucket-wise; merging two histograms of
    the same name with different bucket arrays raises
    [Invalid_argument]. *)
val merge_into : dst:t -> t -> unit

(** Drop all counters and histograms. *)
val reset : t -> unit

(** The registry as one {!Json} object
    [{"counters":{...},"histograms":{...}}] with keys sorted, as
    embedded in [BENCH_RESULTS.json].  A histogram's sum is the lexeme
    [%.6f] and its bounds [%g]; a non-finite one is [null]. *)
val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
