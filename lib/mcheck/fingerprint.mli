(** Compact 128-bit state fingerprints for the visited set.

    The explorer used to key its visited table on full structural keys
    (sorted message lists plus process arrays), so the table retained a
    deep copy of every state it had ever seen.  A fingerprint is a
    128-bit hash of a {e canonical} encoding of the state: the table
    stores 16 bytes per state regardless of state size, and the deep
    keys are only materialized in the [--exact-keys] verification mode.

    {2 Collision risk}

    Fingerprints are two independent 64-bit lanes, each a
    multiply-xor chain over the canonical word stream with a
    splitmix64-style finalizer per step (different odd multipliers and
    input whitening per lane).  Treating the lanes as uniform, the
    birthday bound for [n] distinct states puts the probability of any
    collision at about [n^2 / 2^129] — under [10^-24] for the [10^6]-
    state spaces we explore, and far below the probability of a
    hardware fault during the run.  A collision would only ever {e hide}
    a state (merge it with another), never invent one, and
    {!Explore.run}'s exact-keys mode re-runs the search with both
    tables live and reports any collision observed in practice.

    Producers must feed a canonical, prefix-decodable word stream:
    equal states must produce equal streams (sort sets first) and
    distinct states distinct streams (emit lengths before variable-
    length sections and tags before variant payloads).  See
    {!Model.fold_canonical} / {!Bc_model.fold_canonical}. *)

type t

val equal : t -> t -> bool

val compare : t -> t -> int

(** Hash for use in (functorial, non-randomized) hash tables. *)
val hash : t -> int

(** 32 lowercase hex digits. *)
val to_hex : t -> string

(** {2 Incremental construction}

    The accumulator is immutable, so folding is safe from
    {!Sim.Domain_pool} workers and partial accumulators can be
    shared/reused freely. *)

type acc

val empty : acc

val add_int : acc -> int -> acc

(** Finalize the two lanes into a fingerprint. *)
val finish : acc -> t

(** Hash tables keyed on fingerprints (functorial interface: never
    randomized, so table layout is a deterministic function of the
    insertion sequence). *)
module Tbl : Hashtbl.S with type key = t
