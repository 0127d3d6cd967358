(** The modified Paxos algorithm of Dutta, Guerraoui and Lamport
    (Section 4): consensus within [O(delta)] of stabilization.

    Differences from traditional Paxos, all driven by the goal of taming
    obsolete ballots without a leader-election service:

    - {b Sessions.} Ballot [b] belongs to session [⌊b/N⌋].  A process may
      move itself to session [s+1] (the Start Phase 1 action) only after
      (i) its session timer — armed on session entry to fire between
      [4 delta] and [sigma] real seconds later — expires, {e and} (ii) it
      has received messages of its current session from a majority (or is
      in session 0).  Consequently a failed process is never more than
      one session ahead of what some nonfaulty process reached, so
      obsolete messages cannot force unbounded ballot growth.
    - {b Gossiped 1a.} A process broadcasts a phase 1a message with its
      current ballot whenever it enters a new session, and whenever it
      has sent no 1a/2a for [epsilon] seconds.  A 1a for ballot [b]
      counts as sent by [owner b] no matter who relayed it.
    - {b No leader election, no Reject.}  Implicit leadership: whoever's
      Start Phase 1 lands the highest ballot of the final session wins.

    The protocol value (decisions, safety) does not depend on timing;
    the timing assumptions only make it fast. *)

open Consensus

(** Per-process protocol state (opaque; inspect via accessors). *)
type state

(** Extra knobs for experiments. *)
type options = {
  session_gate : bool;
      (** when [false], condition (ii) is dropped: a timer expiry alone
          allows Start Phase 1.  This is the A1 ablation — it reverts the
          algorithm to unbounded ballot races under obsolete messages. *)
  prestart : bool;
      (** E7 stable-case variant: every process starts at ballot 0
          (owner: process 0) and process 0 — its phase 1 "pre-executed
          in advance for all instances", as the paper puts it — opens
          directly with a phase 2a at boot. *)
}

val default_options : options

(** [protocol cfg] builds the engine protocol. *)
val protocol :
  ?options:options -> Config.t -> (Messages.t, state) Sim.Engine.protocol

(** {2 State accessors (for tests and trace analysis)} *)

val mbal : state -> Ballot.t

val session_number : state -> int

val decided : state -> Types.value option
