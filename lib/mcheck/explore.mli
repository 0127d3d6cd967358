(** Generic bounded state-space exploration: a parallel layered BFS.

    Polymorphic over the transition system: {!Explorer} instantiates it
    for the modified-Paxos core ({!Model}); the CLI instantiates it for
    the B-Consensus round core ({!Bc_model}).

    {2 Algorithm and determinism rule}

    The search proceeds level by level.  Each frontier level is split
    into deterministic contiguous chunks that {!Sim.Domain_pool} workers
    expand concurrently (successor generation and fingerprinting only —
    both pure); the coordinator then merges the resulting
    [(fingerprint, state)] deltas {e in submission-index order} (chunk
    by chunk, and within a chunk state by state, within a state in
    successor-list order).  Merge order is therefore exactly the serial
    BFS discovery order, so [states], [transitions], [complete] and the
    first [violation] — lowest chunk index, then lowest in-chunk index,
    the same rule as {!Sim.Domain_pool.map}'s exception choice — are
    identical at 1 and N domains.  [domains = 1] runs the same layered
    algorithm inline on the calling domain with no pool at all, merging
    each state's successors as soon as they are generated (the same
    order, without holding a whole expanded level).

    {2 Visited keys}

    The visited set is a {!Fingerprint.Set} of 128-bit fingerprints of
    the producer's canonical encoding — one flat table of 16-byte slots
    instead of a deep structural key per state.  [exact_keys] is the
    verification mode: a hash table on the structural [key] (bucketed
    on a hash of the whole key, compared structurally) becomes
    authoritative, so its results are ground truth, and the fingerprint
    set runs alongside purely to count collisions — a nonzero
    [collisions] means two structurally distinct stored states shared
    a fingerprint.

    {2 Bound semantics}

    Every {e discovered} state (first occurrence by visited key) is
    checked against all [properties], {e before} any bound applies; the
    search stops at the first violation.  The bounds only limit what is
    {e stored and expanded}:
    - a state discovered after [max_states] states are stored is
      property-checked, then dropped ([complete] becomes [false]; its
      incoming edge still counts in [transitions], like every generated
      edge of an expanded level);
    - a state at depth [max_depth] is stored and checked but not
      expanded ([complete] becomes [false]).

    Hence [states] counts {e stored} states, [transitions] counts every
    generated edge of every expanded level, and a [violation] witness
    beyond the state cap is still reported. *)

type 'state outcome = {
  states : int;  (** stored states (the visited-set size) *)
  transitions : int;  (** generated edges of expanded levels *)
  complete : bool;  (** false when a depth/state bound stopped the search *)
  violation : (string * 'state) option;
      (** first violation in BFS discovery order *)
  collisions : int option;
      (** [Some n] in [exact_keys] mode: fingerprint collisions observed
          ([n = 0] validates the compact keys); [None] otherwise *)
  table_words : int;
      (** heap words reachable from the visited table(s) at the end of
          the run — the checker's peak key-storage footprint *)
}

(** [run ~initial ~successors ~fingerprint ~key ~properties ~max_depth
    ~max_states] explores the reachable states breadth-first.

    [fingerprint] must hash a canonical encoding (equal states — equal
    fingerprints); [key] must map equal states to equal, structurally
    comparable values — beware non-canonical representations like
    [Set.t].  [key] is only evaluated in [exact_keys] mode.

    [domains] (default 1) sizes the worker pool for frontier expansion;
    results are identical for every value.  [registry] receives the
    [mcheck_frontier_levels] / [mcheck_frontier_states] counters. *)
val run :
  ?domains:int ->
  ?exact_keys:bool ->
  ?registry:Sim.Registry.t ->
  initial:'state ->
  successors:('state -> 'state list) ->
  fingerprint:('state -> Fingerprint.t) ->
  key:('state -> 'key) ->
  properties:(string * ('state -> bool)) list ->
  max_depth:int ->
  max_states:int ->
  unit ->
  'state outcome
