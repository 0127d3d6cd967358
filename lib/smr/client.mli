(** Client for the socket cluster: synchronous KV operations and the
    closed-loop load generator.

    One blocking TCP connection to a cluster member, {!Wire} frames both
    ways.  On a connection failure the client reconnects to the next
    member round-robin and resubmits everything outstanding.  Delivery
    is therefore {e at-least-once}: replicas assign a fresh command id
    to every submission, so a resubmitted command may execute twice —
    acceptable for this KV workload and called out in WIRE.md. *)

type t

exception Disconnected of string
(** Raised when no cluster member is reachable (or a synchronous call
    exhausted its retry). *)

val connect :
  ?verbose:bool -> ?prefer:int -> ?backoff_seed:int -> (string * int) array -> t
(** Connect to the first reachable member, probing from [prefer]
    (default 0) — concurrent load generators should each prefer a
    different replica so the per-command framing work spreads across
    the cluster.  [backoff_seed] (default 1) seeds the reconnect
    jitter, keeping retry timing reproducible run to run. *)

val close : t -> unit

val member : t -> int
(** Index of the member currently connected to. *)


val backoff_delay : ?base:float -> ?cap:float -> round:int -> float -> float
(** [backoff_delay ~round jitter] — the pure reconnect-delay curve:
    [min cap (base * 2^round)] scaled by a jitter factor in
    [0.75, 1.25) derived from [jitter] (which must lie in [0,1)).
    Defaults: [base = 0.05], [cap = 1.0].  Exposed so tests can pin
    the curve without sleeping. *)

(** {2 Synchronous operations}

    Each call is one command round trip: submit, wait for the decree to
    commit, return the replica's reply.  [timeout] (default 5 s) bounds
    the wait per attempt; one reconnect-and-retry on failure. *)

val put : t -> key:string -> value:string -> Wire.reply

val get : t -> string -> Wire.reply

val cas : t -> key:string -> expect:string option -> set:string -> Wire.reply

val request : ?timeout:float -> t -> Command.op -> Wire.reply

(** {2 Load generation} *)

type mix =
  | Mixed  (** 70% put / 20% get / 10% cas over a shared keyspace *)
  | Unique_puts
      (** command [i] is [put "u<i>" v] — idempotent, so at-least-once
          delivery yields exactly-once {e effects}; the chaos campaign's
          workload, where the final KV state certifies the run *)

type load = {
  commands : int;  (** total commands to push (>= 1) *)
  pipeline : int;  (** outstanding requests kept in flight *)
  value_bytes : int;
  keyspace : int;  (** keys are [k0 .. k(keyspace-1)] *)
  seed : int;
  mix : mix;
  latency_trace : string option;
      (** JSONL sink: one [{"t":epoch_seconds,"lat":seconds}] line per
          completed command — the input of [client --check-recovery] *)
}

val default_load : load
(** 100k commands, pipeline 64, 16-byte values, 1k keys. *)

type report = {
  sent : int;
  completed : int;
  resubmitted : int;  (** commands resent after a failover *)
  reconnects : int;
  backoff : float;  (** seconds slept between reconnect rounds *)
  elapsed : float;  (** seconds *)
  throughput : float;  (** completed commands per second *)
  latencies : float array;  (** per-command seconds, sorted ascending *)
  samples : (float * float) array;
      (** [(completion wall time, latency)] in completion order — the
          latency trace as data, for in-process recovery checks *)
}

val run_load : ?timeout:float -> t -> load -> report
(** Keep [pipeline] requests in flight until [commands] complete; on a
    connection failure, fail over and resubmit the outstanding window.
    The op mix is 70% put / 20% get / 10% cas over [keyspace] keys. *)
