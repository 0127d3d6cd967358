(** Client commands for the replicated state machine.

    The replicated state is a single integer register plus a string
    key/value store ({!Kv_state}); commands are the register operations,
    the key/value operations ([Kv_get]/[Kv_put]/[Kv_cas]), [Noop] (which
    leaders propose to fill log gaps), and [Batch] (a flat run of client
    commands decided as one decree — the unit of batching in the socket
    replica, see [WIRE.md]).  Every client command carries a unique id so
    that a command re-proposed by two leaders (possible across leader
    changes) executes only once. *)

type op =
  | Set of int  (** register := v *)
  | Add of int  (** register := register + d *)
  | Noop  (** identity; the gap-filler *)
  | Kv_get of string  (** read [key]; a no-op on the state, replied to *)
  | Kv_put of { key : string; value : string }  (** store [key = value] *)
  | Kv_cas of { key : string; expect : string option; set : string }
      (** compare-and-swap: if the current binding of [key] equals
          [expect] ([None] = absent), store [set] *)
  | Batch of t list
      (** one decree carrying many client commands, applied in order.
          Batches never nest and every element has a non-negative id. *)

and t = { id : int; op : op }

val make : id:int -> op -> t
(** Rejects negative ids and nested or malformed batches. *)

val noop : t
(** The gap-filler: [id = -1], applies as the identity. *)

val is_noop : t -> bool

(** [apply state cmd] — the integer-register transition.  Key/value
    operations leave the register untouched (their effect lives in
    {!Kv_state}); a batch folds over its elements. *)
val apply : int -> t -> int

(** Order-sensitive digest of a command sequence; two replicas that
    applied the same commands in the same order agree on it. *)
val checksum : t list -> int

val equal : t -> t -> bool

(** Prints {!info}. *)
val pp : Format.formatter -> t -> unit

(** One line, e.g. ["cmd3:put(k=v)"] or ["cmd7:batch[2]{cmd1:set(4) noop}"],
    built without [Format]: it is the payload detail of every traced SMR
    message that carries a command. *)
val info : t -> string
