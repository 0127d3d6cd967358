(** Rotating-coordinator round-based consensus (Section 3).

    A Chandra–Toueg-style algorithm: in round [r] the coordinator
    [r mod N] collects a majority of timestamped estimates, proposes the
    one with the highest timestamp, and a majority of acknowledgements
    decides.  Two of the paper's observations are baked in:

    - {b Majority-gated rounds}: a process may move {e spontaneously}
      (i.e. by timeout) from round [r] to [r+1] only once it has received
      round-[r] messages from a majority, which bounds how far obsolete
      round numbers can run ahead; receiving a higher-round message makes
      the process jump to that round directly.
    - {b The O(N delta) weakness}: progress in round [r] needs the
      coordinator [r mod N] alive; with [⌈N/2⌉ - 1] of the first
      coordinators failed, each of their rounds burns one
      [round_timeout = O(delta)], so the decision arrives only at
      [TS + O(N delta)] (experiment E3). *)

open Consensus

type state

type tuning = {
  round_timeout : float;  (** local-clock round duration, default 4 delta *)
  epsilon : float;  (** estimate-rebroadcast period, default delta /. 4. *)
  broadcast_decision : bool;
}

val default_tuning : delta:float -> tuning

val protocol :
  ?tuning:tuning -> n:int -> delta:float -> unit ->
  (Rotating_messages.t, state) Sim.Engine.protocol

(** {2 Accessors for tests} *)

val round : state -> int

val estimate : state -> Types.value

val decided : state -> Types.value option

val coordinator : n:int -> int -> Types.proc_id
