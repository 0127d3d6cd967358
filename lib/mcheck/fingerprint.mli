(** Compact 128-bit state fingerprints and the flat set that stores them.

    A fingerprint is a 128-bit hash of a {e canonical} encoding of a
    state, so the visited set keeps 16 bytes per slot regardless of
    state size, and deep structural keys are only materialized in
    {!Explore.run}'s [--exact-keys] verification mode.  {!Set} keeps
    its slots in one flat byte table at most half full, so a stored
    state costs 32 to 64 bytes (44 bytes at the 190003 states of the
    depth-10 Paxos search: 2{^19} slots, 8.4 MB), and the table is a
    single heap block that the GC never scans.

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
    length sections and tags before variant payloads).  A {!Model}
    state is such a stream itself and is hashed with {!of_words};
    {!Bc_model} folds {!add} over the stream it builds. *)

type t

val equal : t -> t -> bool

(** 32 lowercase hex digits. *)
val to_hex : t -> string

(** The inverse of {!to_hex}.  Raises [Invalid_argument] unless given
    32 lowercase hex digits. *)
val of_hex : string -> t

(** {2 Construction}

    [of_words ws], or [finish (fold add (hasher ()) ws)] when the words
    are produced one at a time; the two agree on every word sequence.
    A hasher is mutable and belongs to one fingerprint computation:
    make a fresh one per call (never share one between
    {!Sim.Domain_pool} workers), and do not use it after [finish]. *)

type hasher

(** A fresh hasher holding the initial lanes. *)
val hasher : unit -> hasher

(** [add h w] mixes the word [w] into both lanes of [h] and returns
    [h]. *)
val add : hasher -> int -> hasher

(** Finalize the two lanes into a fingerprint. *)
val finish : hasher -> t

(** [of_words ws] is [finish (Array.fold_left add (hasher ()) ws)],
    computed in one loop with both lanes held unboxed: it allocates
    only the result. *)
val of_words : int array -> t

(** Sets of fingerprints: open addressing with linear probing over one
    byte table of 16-byte slots.  The layout is a deterministic
    function of the insertion sequence. *)
module Set : sig
  type fp = t

  type t

  val create : unit -> t

  val mem : t -> fp -> bool

  (** Adds a fingerprint; a no-op if it is already a member. *)
  val add : t -> fp -> unit

  val length : t -> int
end
