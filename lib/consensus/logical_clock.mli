(** Lamport logical clocks (Lamport 1978), used by the Section 5
    message-delivery oracle.

    The oracle timestamps every broadcast with the sender's logical
    clock; receiving a message advances the receiver's clock past the
    message's timestamp, so every message a process sends after receiving
    [m] carries a timestamp greater than [m]'s.  Ties across processes
    are broken by process id, giving a total order. *)

type t

(** Timestamp: (counter, process id), ordered lexicographically. *)
type stamp = { counter : int; origin : Types.proc_id }

val create : owner:Types.proc_id -> t

(** Advance the clock and return a fresh stamp for an outgoing message. *)
val tick : t -> stamp

(** Merge an incoming stamp: [counter := max counter incoming.counter].
    (The next [tick] is then strictly greater than the incoming stamp.) *)
val observe : t -> stamp -> unit

(** Current counter value (monotone, for assertions). *)
val current : t -> int

val compare_stamp : stamp -> stamp -> int

(** ["<counter>.<origin>"], without [Format]. *)
val stamp_to_string : stamp -> string
