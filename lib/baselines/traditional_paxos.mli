(** Traditional Paxos, as recalled in Section 2 of the paper.

    The algorithm leans on a leader-election oracle for progress: the
    elected process spontaneously (re-)executes Start Phase 1 every
    [theta = O(delta)] seconds while consensus is unreached, choosing an
    arbitrary ballot congruent to its id — here, the smallest one above
    every ballot it has seen.  A process that receives a 1a/2a message
    below its own ballot answers with [Rejected], which makes the leader
    try again higher.

    This is the paper's negative result: obsolete messages carrying
    anomalously high ballots — sent before [TS] by processes that have
    since failed — each force one more Start Phase 1 round trip, and
    with up to [⌈N/2⌉ - 1] failed processes the decision can be delayed
    to [TS + O(N delta)] (experiment E2). *)

open Consensus

type state

(** Tuning: [theta] is the leader's re-try period (default [2 delta]);
    [broadcast_decision] gossips decisions (default true, matching the
    "respond to every message by announcing the decided value"
    optimization — without it, a deposed leader's followers might decide
    only via a later ballot). *)
type tuning = { theta : float; broadcast_decision : bool }

val default_tuning : delta:float -> tuning

val protocol :
  ?tuning:tuning ->
  n:int ->
  delta:float ->
  oracle:Leader_election.t ->
  unit ->
  (Paxos_messages.t, state) Sim.Engine.protocol

(** {2 Accessors for tests} *)

val mbal : state -> Ballot.t

val decided : state -> Types.value option
