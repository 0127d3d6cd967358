(** Wire messages of the modified Paxos algorithm.

    Identical to traditional Paxos minus the [Rejected] message (the
    modified algorithm replaces rejection with session timeouts), plus an
    optional [Decision] announcement. *)

open Consensus

type t =
  | P1a of { mbal : Ballot.t }
      (** "prepare": treated as sent by [owner mbal] regardless of which
          process relayed it (processes gossip 1a messages on session
          entry and every [epsilon] seconds) *)
  | P1b of { mbal : Ballot.t; vote : Vote.t }
      (** "promise" to [owner mbal], reporting the highest accepted vote *)
  | P2a of { mbal : Ballot.t; value : Types.value }  (** "accept?" *)
  | P2b of { mbal : Ballot.t; value : Types.value }
      (** "accepted", sent to every process *)
  | Decision of { value : Types.value }
      (** optional decision gossip (config flag) *)

(** Ballot carried by the message ([None] for [Decision]). *)
val mbal : t -> Ballot.t option

(** One-line human-readable description, e.g. ["1a(b7)"]. *)
val info : t -> string

(** Structured trace payload: kind ["1a"]/["1b"]/["2a"]/["2b"]/
    ["decision"], with ballot, session ([b / n]), phase and value as
    applicable. *)
val payload : n:int -> t -> Sim.Trace.payload
