(** Deterministic, JSON-serializable fault schedules for the socket
    cluster.

    A schedule is the eventual-synchrony adversary as data: every time
    is relative to the campaign's start, [ts] is the stabilization
    point, and {!validate} enforces the model's shape — disruptive
    actions (cuts, partitions, corruption, truncation, duplication,
    reordering, stalls, resets) must end by [ts], and post-[ts]
    interference is limited to added latency bounded by [delta].  The
    recovery bound the campaign asserts after [ts] is exactly the
    paper's promise for that regime.

    Link endpoints are [-1] for clients and [0..n-1] for replicas; a
    direction [(src, dst)] matches frames flowing from [src] to [dst]
    on any proxied connection, in either connection role (the proxy
    learns endpoint identity from the [Hello] frame that opens every
    WIRE.md connection). *)

type action =
  | Cut of { src : int; dst : int; from_ : float; until : float }
      (** silently drop frames [src -> dst] during the window *)
  | Partition of { groups : int list list; from_ : float; until : float }
      (** drop frames between endpoints in different groups; endpoints
          not listed are unaffected *)
  | Delay of { from_ : float; until : float; max_delay : float }
      (** add uniform [0, max_delay) latency to every frame, preserving
          per-direction FIFO order; the only action allowed to cross or
          follow [ts] (with [max_delay <= delta]) *)
  | Duplicate of { src : int; dst : int; from_ : float; until : float; prob : float }
  | Reorder of { src : int; dst : int; from_ : float; until : float; prob : float }
      (** hold a frame back and release it after its successor *)
  | Corrupt of { src : int; dst : int; from_ : float; until : float; prob : float }
      (** flip a payload byte — the receiver's CRC check must turn this
          into a clean per-connection teardown *)
  | Truncate of { src : int; dst : int; from_ : float; until : float; prob : float }
      (** forward a frame prefix, then sever the connection *)
  | Reset of { dst : int; at : float }
      (** tear down every proxied connection through replica [dst]'s
          front at time [at] *)
  | Stall of { src : int; dst : int; from_ : float; until : float }
      (** hold all frames until the window closes, then flush in order *)

type t = {
  name : string;
  seed : int64;
  n : int;  (** replicas *)
  ts : float;  (** stabilization point, seconds from campaign start *)
  delta : float;  (** post-[ts] delivery bound *)
  horizon : float;  (** end of scheduled interference, [>= ts] *)
  actions : action list;
}

val validate : t -> (unit, string) result
(** Structural and model-shape checks (see module doc). *)

val generate :
  ?name:string ->
  seed:int64 ->
  n:int ->
  ts:float ->
  delta:float ->
  horizon:float ->
  unit ->
  t
(** The canonical seeded campaign: a directed partition isolating a
    random victim, a link cut, corruption on a peer link, one replica
    reset — all before [ts] — then delta-bounded added latency to the
    horizon.  Pure function of its arguments: the same seed yields the
    same schedule byte for byte.  Raises [Invalid_argument] on [n < 2]
    or a malformed time layout. *)

val equal : t -> t -> bool

val to_json : t -> Sim.Json.t
(** Includes a [format] member ({!format_tag}) so corpus files are
    self-describing. *)

val of_json : Sim.Json.t -> (t, string) result
(** Checks the [format] member and {!validate}s the result. *)

val format_tag : string
(** ["chaos-schedule/1"]. *)

val pp : Format.formatter -> t -> unit

