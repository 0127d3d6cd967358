(** State machine replication over the modified Paxos algorithm.

    The paper's "Reducing Message Complexity" discussion is about systems
    that run {e a sequence of instances} of consensus: phase 1 can be
    executed once, in advance, for all instances, after which a stable
    leader commits each client command with a single phase-2 round —
    "all nonfaulty processes decide within 3 message delays" (forward to
    the leader, 2a, 2b).  This module realizes that design on top of the
    session-gated ballot machinery of {!Dgl}:

    - ballots and sessions are global (one Start Phase 1 action, one
      session timer, one majority-heard gate), and the rules that drive
      them are {!Dgl.Session.Make}, the code {!Dgl.Modified_paxos} runs
      too; this module adds what differs: adopting a ballot re-queues
      orphaned proposals and resets leader bookkeeping, a session entry
      records the progress mark (no trace note, no counter), the progress
      gate may stand a session timeout down, and the [epsilon] tick
      carries catch-up digests and re-forwards;
    - phase 1b messages report the sender's accepted votes for {e all}
      unchosen instances (chosen instances are reported as votes with an
      infinite ballot so a new leader can never contradict them);
    - a leader whose phase 1 completed assigns each new command to the
      next free instance and broadcasts a single 2a; followers forward
      client commands to the current ballot owner;
    - gaps left by leader changes are filled with [Noop]s, and replicas
      exchange [Chosen] entries so restarted processes catch up;
    - command ids make re-proposed commands idempotent: the state machine
      applies the first occurrence only.

    A process "decides" (in the engine's single-shot sense) when its
    contiguous chosen prefix contains every workload command; the decided
    value is an order-sensitive checksum of the applied command sequence,
    so the engine's agreement check doubles as a replicated-log
    divergence detector. *)

open Consensus

type state

(** [protocol cfg ~workloads] builds the engine protocol.

    [workloads.(p)] is process [p]'s submission schedule: commands paired
    with the local-clock time at which the client hands them to [p]
    (sorted ascending).  Command ids must be unique across the whole
    workload; raises [Invalid_argument] otherwise. *)
val protocol :
  ?progress_gate:bool ->
  Dgl.Config.t ->
  workloads:(float * Command.t) list array ->
  (Smr_messages.t, state) Sim.Engine.protocol
(** [progress_gate] (default true): Start Phase 1 fires only when there
    is outstanding work and nothing was chosen since the session timer
    was armed — the paper's "same behavior as normal Paxos in the stable
    case".  Disabling it (the A4 ablation) makes leadership churn every
    session timeout even in a healthy system. *)

(** {2 Accessors for tests and experiments} *)

val mbal : state -> Ballot.t

val session_number : state -> int

val leading : state -> bool

(** Length of the contiguous chosen prefix. *)
val chosen_upto : state -> int

(** The commands actually applied (first occurrences of non-noop
    commands in prefix order). *)
val applied : state -> Command.t list

(** Register value after applying {!applied} to 0. *)
val register : state -> int

(** [chosen_at st i] — the command chosen at instance [i], if any (not
    limited to the contiguous prefix).  The socket replica uses it to
    apply instances incrementally as [chosen_upto] advances. *)
val chosen_at : state -> int -> Command.t option

(** {2 Restart: the durable essence}

    A crash keeps exactly what a phase-1b message reports: the highest
    ballot heard, the accepted votes, and the chosen log (folded in as
    infinite-ballot votes, the convention the live protocol uses), with
    the chosen watermark.  {!essence} extracts it.  This is acceptor
    state only; everything else — sessions heard, leader bookkeeping,
    2b tallies, the pending queue — is volatile.  Since a restarted
    process does not know what it proposed, it never leads again at a
    ballot it owns: when the restored ballot is its own, {!restore}
    starts phase 1 at once at a fresh self-owned ballot of the next
    session.

    {!restore} is the only restart path.  The simulator's
    [on_restart] applies it to the essence of the persisted state, and
    the socket replica applies it to the essence it reads from its
    snapshot.  It builds a fresh state holding the essence, re-arms the
    session, resend and submission timers, and broadcasts a
    [Chosen_digest] so peers backfill whatever was chosen after the
    essence was written.  What the essence leaves out comes from the
    caller, never from the persisted state:
    - [progress_gate] is {!protocol}'s;
    - [total_commands] is the decide rule's command count: {!protocol}
      passes its workloads' total, the socket replica 0, so it never
      decides;
    - [workload] is this process's submission schedule.  It acts as the
      client outside the replica: it is submitted as at boot, so the
      commands whose time has passed go out at once.  Command ids make
      a resubmission of a chosen command harmless. *)

type essence = {
  e_mbal : Ballot.t;
  e_votes : (int * Smr_messages.ivote) list;
  e_chosen_upto : int;
}

val essence : state -> essence

val restore :
  Dgl.Config.t ->
  progress_gate:bool ->
  workload:(float * Command.t) list ->
  total_commands:int ->
  (Smr_messages.t, state) Sim.Runtime.ctx ->
  essence ->
  state
