(** The message-delivery oracle of Section 5.

    The paper implements Pedone et al.'s weak ordering oracle like this:
    every oracle message is broadcast to all processes and timestamped
    with a Lamport logical clock; a receiver holds each message back for
    [2 delta] seconds after receipt and delivers held messages in
    timestamp order.

    Why it works after stabilization: a message [m] sent at a stable time
    reaches every nonfaulty process within [delta]; every message sent
    after that receipt carries a larger timestamp; so by the time [m]'s
    [2 delta] hold-back expires, the receiver has already received every
    message with a smaller timestamp sent after stabilization — hence
    all nonfaulty processes deliver the same stable-period messages in
    the same (timestamp) order.  Before stabilization there is no
    guarantee, and none is needed.

    The oracle is a pure value living inside protocol state; the
    protocol arms an engine timer for each receipt and calls {!due} when
    it fires.  Hold-back is measured on the local clock: pass
    [hold_local = 2 * delta * (1 + rho)] to guarantee at least
    [2 delta] real seconds under every admissible clock rate.

    Cost.  The held messages form a persistent queue ordered by
    (stamp, arrival): an ascending list that {!due} releases from, and a
    descending list that {!receive} inserts into.  A receipt walks and
    copies only the held messages of the second list with larger stamps
    — none for a stamp above every held one, a handful for the
    near-maximum stamps a Lamport clock hands out, so its cost does not
    grow with the number of held messages.  {!due} pops released
    messages from the first list in O(1) each; when the smallest held
    message is in the second list and released, the two are merged
    once, which amortizes to O(1) per message as long as receipts
    arrive in near-stamp order.  A message stamped below most held ones
    (possible before stabilization) costs a copy of the second list, as
    a sorted list would.  Seed-42 fuzz campaign: 88 messages held
    on average, 7 walked per receipt, about one more copied per receipt
    by merges. *)

open Consensus

type 'a t

val create : owner:Types.proc_id -> hold_local:float -> 'a t

(** Draw a fresh timestamp for an outgoing oracle broadcast (advances the
    logical clock). *)
val next_stamp : 'a t -> 'a t * Logical_clock.stamp

(** [receive t ~now_local ~stamp payload] records an incoming oracle
    message (advancing the logical clock past [stamp], per Lamport's
    rule) and returns the local time at which its hold-back expires —
    the caller arms a timer for that instant. *)
val receive :
  'a t -> now_local:float -> stamp:Logical_clock.stamp -> 'a -> 'a t * float

(** [due t ~now_local] removes and returns every held message that is
    ready for delivery, smallest timestamp first.  A message is ready
    when its own hold-back has expired {e and} no held message with a
    smaller timestamp is still waiting (the stronger variant of
    timestamp-order delivery: later-stamped messages queue behind
    earlier-stamped ones). *)
val due :
  'a t -> now_local:float -> 'a t * (Logical_clock.stamp * 'a) list

(** Number of messages currently held back. *)
val pending_count : 'a t -> int

(** Current logical-clock counter (monotone; for tests). *)
val clock : 'a t -> int
