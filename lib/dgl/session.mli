(** Sessions and the ballot rules of the modified Paxos algorithm.

    A process is in session [⌊mbal/N⌋].  The Start Phase 1 action — the
    only way a process raises its own ballot — is enabled exactly when

    (i) the session timer (armed on session entry to fire between
        [4 delta] and [sigma] real seconds later) has expired, and
    (ii) the process is in session 0, or it has received a message
         carrying its current session from a majority of processes.

    Rule (ii) is the mechanism that bounds obsolete ballots: a failed
    process can be at most one session ahead of every majority, so
    messages from before stabilization can never carry a session more
    than [s0 + 1] (step 1 of the paper's proof).

    {!t} is the bookkeeping of one session.  {!Make} writes the rules
    that drive it — ballot adoption, session entry, Start Phase 1, the
    heard-from majority, 1a gossip and both timers — once, for every
    Paxos variant that runs them ([Dgl.Modified_paxos] and
    [Smr.Multi_paxos]). *)

open Consensus

type t = private {
  n : int;  (** total number of processes *)
  number : int;  (** current session = [⌊mbal/N⌋] *)
  heard : Quorum.t;  (** processes heard from in this session *)
  timer_expired : bool;
}

(** Session 0 with an armed (unexpired) timer and nobody heard. *)
val initial : n:int -> t

(** Enter session [number]: fresh heard-set, timer re-armed.
    Requires [number > current]. *)
val enter : t -> number:int -> t

(** Record a message from [p] carrying the current session. *)
val hear : t -> Types.proc_id -> t

(** Mark the session timer as expired. *)
val expire : t -> t

(** Condition (i) && (ii) above. *)
val can_start_phase1 : t -> bool

val pp : Format.formatter -> t -> unit

(** {2 The session rules} *)

(** How a process entered a session: by adopting a higher ballot it
    heard of, or by its own Start Phase 1. *)
type entry = Adopt | Start

(** ["adopt"] or ["start"]. *)
val entry_label : entry -> string

(** Timer tag of the [epsilon] tick.  Session timers are tagged with
    their session number, which is never negative. *)
val resend_tag : int

(** What a Paxos variant supplies to {!Make}: accessors of its own flat
    state record, and the steps in which the variants differ. *)
module type PROTOCOL = sig
  type msg

  type state

  (** The phase 1a message for a ballot. *)
  val p1a : Ballot.t -> msg

  (** The ballot a message carries, if any. *)
  val msg_ballot : msg -> Ballot.t option

  val config : state -> Config.t

  (** The current ballot ([mbal]). *)
  val ballot : state -> Ballot.t

  val session : state -> t

  val with_session : state -> t -> state

  (** Local time of the last 1a or 2a this process sent. *)
  val last_active_local : state -> float

  val with_last_active_local : state -> float -> state

  (** [false] drops condition (ii): a timer expiry alone enables Start
      Phase 1. *)
  val session_gate : state -> bool

  (** [adopt st b] sets the ballot to [b] and resets whatever is scoped
      to the old ballot. *)
  val adopt : state -> Ballot.t -> state

  (** [enter ctx st s how] stores the new session [s]; it runs before
      the session timer is armed and the 1a is gossiped. *)
  val enter : (msg, state) Sim.Engine.ctx -> state -> t -> entry -> state

  (** Whether an [epsilon] tick that finds the process active re-arms
      for the rest of the period ([true]) or for a whole period. *)
  val rearm_at_remainder : bool

  (** Arms the variant's own timers; runs after the session and
      [epsilon] timers on boot and on resume. *)
  val arm_own_timers : (msg, state) Sim.Engine.ctx -> state -> unit
end

module Make (P : PROTOCOL) : sig
  type ctx = (P.msg, P.state) Sim.Engine.ctx

  (** Record that a 1a or 2a was just sent. *)
  val mark_active : ctx -> P.state -> P.state

  (** [adopt_ballot ctx st b] raises the ballot to [b] (strictly
      higher).  When [b]'s session is later than the current one the
      process enters it: {!PROTOCOL.enter}, then the session timer is
      armed and a 1a broadcast. *)
  val adopt_ballot : ctx -> P.state -> Ballot.t -> P.state

  (** Start Phase 1: jump to the next session with a self-owned
      ballot, whether or not the session rules enable it. *)
  val start_phase1 : ctx -> P.state -> P.state

  (** {!start_phase1} when the session rules enable it. *)
  val maybe_start_phase1 : ctx -> P.state -> P.state

  (** Count the transport sender [src] as heard in the current session
      when [msg]'s ballot carries it, then re-evaluate Start Phase 1.
      Contact is with [src], not with the ballot's owner: the paper
      treats a relayed 1a as sent by its owner only for its Paxos role
      (where the 1b goes). *)
  val hear : ctx -> P.state -> src:Types.proc_id -> P.msg -> P.state

  (** Arm the session timer of the current session. *)
  val arm_session_timer : ctx -> P.state -> unit

  (** Arm the session timer, the [epsilon] tick and the variant's own
      timers. *)
  val arm_timers : ctx -> P.state -> unit

  (** The session rules' share of the [epsilon] tick: gossip a 1a when
      nothing was sent for [epsilon], and re-arm the tick. *)
  val resend : ctx -> P.state -> P.state

  (** Whether a timer with [tag] is the live timer of the current
      session (not stale, not already expired). *)
  val session_timer_due : P.state -> tag:int -> bool

  (** Expire the session timer and re-evaluate Start Phase 1. *)
  val expire_session : ctx -> P.state -> P.state

  (** Restart from a persisted state: re-arm the timers and
      re-evaluate Start Phase 1. *)
  val resume : ctx -> P.state -> P.state
end
