(** Phase-1b vote bookkeeping shared by the Paxos variants.

    A vote is the [(vbal, vval)] pair a process reports in its phase 1b
    message: the highest ballot at which it has accepted a value, and
    that value.  The safety core of Paxos is [choose]: a new leader must
    propose the value of the highest-ballot vote among a majority, and
    may use its own proposal only if nobody in the majority has accepted
    anything. *)

type t = { vbal : Ballot.t; vval : Types.value }

(** The "never accepted" vote: [vbal = Ballot.none]. *)
val none : t

val is_none : t -> bool

val make : vbal:Ballot.t -> vval:Types.value -> t

(** [choose ~fallback votes] returns the value of the vote with the
    highest [vbal], or [fallback] when every vote is [none]. *)
val choose : fallback:Types.value -> t list -> Types.value

(** ["vote:none"] or ["vote{b<vbal>=<vval>}"], without [Format]. *)
val to_string : t -> string

(** Prints {!to_string}. *)
val pp : Format.formatter -> t -> unit
