(** Frame-aware TCP chaos proxy for the socket cluster.

    One front listener per replica; each accepted connection is paired
    with a backend connection to the real replica, and {!Smr.Wire}
    frames are decoded only to find boundaries and learn endpoint
    identity (from the [Hello] that opens every connection — see the
    proxy-transparency note in WIRE.md).  The original bytes are
    forwarded untouched unless the {!Schedule} says otherwise, so with
    an empty schedule the proxy is byte-transparent.

    Per-direction random draws come from a {!Sim.Prng} substream keyed
    by (schedule seed, src, dst): accept order does not perturb which
    frames a given link corrupts, delays, or duplicates.

    Counters land in the supplied registry under the [chaos_*] family
    (see OBSERVABILITY.md): [chaos_conns], [chaos_frames],
    [chaos_dropped], [chaos_delayed], [chaos_duplicated],
    [chaos_reordered], [chaos_corrupted], [chaos_truncated],
    [chaos_resets], [chaos_bad_frames].

    Threading: {!create}, {!set_backends}, and {!start_clock} must all
    happen before the loop thread calls {!run}; afterwards only {!stop}
    may be called from another thread. *)

type t

val create :
  ?host:string ->
  ?ports:int array ->
  schedule:Schedule.t ->
  registry:Sim.Registry.t ->
  unit ->
  t
(** Validate the schedule and bind one front listener per replica on
    [host] (default [127.0.0.1]); [ports] requests specific front ports
    (default all [0] = ephemeral).  Raises [Invalid_argument] on a
    malformed schedule and [Unix.Unix_error] if a bind fails. *)

val fronts : t -> (string * int) array
(** [(host, port)] per replica — what replicas and clients should be
    given as the cluster addresses. *)

val set_backends : t -> (string * int) array -> unit
(** Where the real replicas listen; must be set before traffic flows. *)

val start_clock : t -> unit
(** Pin campaign time zero to now and arm scheduled resets.  Before
    this call no schedule window is active (the proxy forwards
    transparently). *)

val run : t -> unit
(** Run the proxy event loop until {!stop} (call from its own thread). *)

val stop : t -> unit

val shutdown : t -> unit
(** Close every connection and listener (after {!run} returns). *)

val registry : t -> Sim.Registry.t
