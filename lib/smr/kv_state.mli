(** The replicated key/value store driven by the chosen log.

    A {!t} is the materialized effect of a log prefix: a string-keyed
    store plus a per-command-id reply cache.  The cache gives
    exactly-once semantics — a command decided twice (possible when two
    leaders re-propose across a session change) executes once and the
    second application replays the cached reply — which is what lets the
    socket replica ({!Replica}) answer client retries idempotently.

    Apply order must match the chosen-log order on every replica; the
    store itself is deterministic, so replicas that applied the same
    prefix agree on {!checksum}. *)

type reply =
  | Stored  (** [Kv_put] acknowledged *)
  | Found of string  (** [Kv_get] hit *)
  | Absent  (** [Kv_get] miss *)
  | Cas_ok  (** [Kv_cas] succeeded *)
  | Cas_fail of string option
      (** [Kv_cas] expectation failed; carries the actual binding *)
  | Noreply  (** register ops and noops: nothing to report *)

type t

val create : unit -> t

val apply : t -> Command.t -> (int * reply) list
(** Execute one decree.  Returns one [(command id, reply)] pair per
    client command executed (a [Batch] yields one pair per element, the
    gap-filler noop yields none), in execution order.  Duplicate ids are
    not re-executed; their cached reply is returned. *)

val get : t -> string -> string option
(** Read a binding directly (bypasses the log — for local probes). *)

val applied : t -> int
(** Count of distinct client commands executed so far. *)

val checksum : t -> int
(** Order-independent digest of the current bindings; replicas that
    applied the same log prefix agree on it. *)

val reply_equal : reply -> reply -> bool

val pp_reply : Format.formatter -> reply -> unit
