(** Modified B-Consensus (Section 5): a leaderless round-based consensus
    over a weak ordering oracle, decided within [O(delta)] of
    stabilization.

    {b Relation to the paper.}  Section 5 only sketches the
    modifications and refers to Pedone, Schiper, Urbán and Cavin
    (EDCC 2002) for the round structure.  We implement a Ben-Or-shaped
    round in which the oracle plays the role of the common suggestion:

    + {e stage 1}: broadcast [First (r, est)] through the ordering
      oracle ({!Ordering_oracle}: logical-clock timestamps, [2 delta]
      hold-back, timestamp-order delivery);
    + on the {e first} oracle delivery of a round-[r] [First] carrying
      value [v]: send [Report (r, v)] to all;
    + on a majority of round-[r] reports: send [Lock (r, Some v)] if
      they are all equal to [v], else [Lock (r, None)];
    + on a majority of round-[r] locks: decide [v] if all are
      [Some v]; otherwise adopt [v] as estimate if any lock is
      [Some v]; otherwise adopt the oracle value reported in stage 2;
      then enter round [r+1].

    Safety is oracle-independent: two conflicting [Some _] locks cannot
    exist in one round (each needs a majority of identical reports and
    every process reports once), and a decision on [v] forces every
    majority of locks seen by anyone else to contain a [Some v], so all
    estimates converge to [v].  The oracle only provides liveness: when
    it delivers the round's first message in the same order everywhere
    — which the [2 delta] hold-back guarantees after [TS] — every
    process reports the same value and the round decides.

    The two modifications from the paper are included: a process enters
    round [r+1] only after hearing round-[r] locks from a majority (round
    advancement is purely message-driven — completing the lock phase
    {e is} the paper's "do not start round [i+1] until a majority of
    processes have begun round [i]" gate), and a process jumps directly
    to round [j] upon receiving a round-[j] message, without executing
    the rounds in between.  Every current-round message is retransmitted
    each [epsilon] seconds so that rounds stalled by pre-[TS] losses
    complete within [O(delta)] of stabilization. *)

open Consensus

type state

type tuning = {
  hold_back : float;
      (** oracle hold-back in {e real} seconds; the paper's value is
          [2 delta].  Exposed for the A2 ablation, which shows shorter
          hold-backs break same-order delivery. *)
  epsilon : float;  (** retransmission period, default [delta /. 4.] *)
  broadcast_decision : bool;
  jump : bool;
      (** allow a process more than one round behind to jump directly to
          the round of a received message (default).  When disabled the
          algorithm is the {e original} B-Consensus shape: a straggler
          must execute every round in order, and peers must retransmit
          {e all} their previous rounds' messages — the cost the paper
          calls unreasonable, measured by experiment A3. *)
}

val default_tuning : delta:float -> tuning

val protocol :
  ?tuning:tuning -> n:int -> delta:float -> rho:float -> unit ->
  (Bc_messages.t, state) Sim.Engine.protocol

(** {2 Accessors for tests} *)

val round : state -> int

val estimate : state -> Types.value

val decided : state -> Types.value option

