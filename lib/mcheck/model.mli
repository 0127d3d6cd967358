(** A small-scope formal model of the modified Paxos core.

    This is a time-free {e over-approximation} of the Section 4
    algorithm, built for exhaustive safety checking:

    - timers are erased: any action whose timing precondition could ever
      be met is always enabled (a superset of all real schedules);
    - the network is a grow-only set of messages: any sent message can be
      delivered at any time, any number of times, or never — which
      subsumes loss, reordering, duplication, and crash/restart (a
      crashed process is simply one that takes no more steps; stable
      storage means its state is still there if it resumes);
    - the "received from a majority" gate reads the message set directly:
      a message with a session-[s] ballot proves its sender had reached
      session [s], which is the fact the gate exploits.

    Every safety property that holds on this model holds on every timed
    execution, because each timed execution's steps embed into the
    model's transitions.  Liveness and latency do {e not} transfer — they
    are what the simulator measures.

    The state space is bounded by capping session numbers; the explorer
    reports how many states a cap covers. *)

(** One immutable [int array] that is its own canonical word stream:
    [[n; mbal vbal vval decided (x n); #msgs; records...]].  Each record
    is tag-first — 1a = [0 src bal], 1b = [1 src bal vbal vval], 2a =
    [2 bal value], 2b = [3 src bal value] — and the records are
    distinct and sorted lexicographically, so equal states are equal
    arrays.  A [-1] [vbal] means never accepted ([vval] is then
    meaningless) and a [-1] [decided] means undecided. *)
type state

type config = {
  n : int;
  proposals : int array;
  max_session : int;  (** Start Phase 1 beyond this cap is disabled *)
  gate : bool;  (** condition (ii); [false] explores the ungated variant *)
}

val initial : config -> state

(** All states reachable in one step. *)
val successors : config -> state -> state list

(** {2 Reading a state} *)

(** [decided st p]: process [p]'s decision, [-1] while undecided. *)
val decided : state -> int -> int

(** Messages in the grow-only network. *)
val msg_count : state -> int

(** {2 State identity} *)

(** The state's own word stream, shared rather than copied (do not
    write to it): equal states are structurally equal arrays.  This is
    the exact-mode visited key (and the one witness states are compared
    with in tests). *)
val key : state -> int array

(** 128-bit fingerprint of the word stream, {!Fingerprint.of_words} of
    {!key} — the compact visited key ({!Fingerprint} documents the
    collision-risk argument). *)
val fingerprint : state -> Fingerprint.t

(** {2 Properties} *)

(** No two processes decided different values. *)
val agreement : state -> bool

(** Every decided value is some process's proposal. *)
val validity : config -> state -> bool

(** The proof's step-1 invariant: every ballot present anywhere (process
    or message) has a session at most one above the highest session that
    a majority of processes have reached. *)
val obsolete_bound : config -> state -> bool

val pp_state : Format.formatter -> state -> unit
