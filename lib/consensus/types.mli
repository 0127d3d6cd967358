(** Shared vocabulary for all consensus protocols in this repository. *)

(** Process identifier, [0 .. n-1]. *)
type proc_id = int

(** Proposal / decision values.  Consensus is value-agnostic; integers
    keep scenarios and assertions simple. *)
type value = int

(** Sets of process ids. *)
module Pset : sig
  include Set.S with type elt = int

  val pp : Format.formatter -> t -> unit
end

(** [no_value] marks "no accepted value yet" in vote bookkeeping. *)
val no_value : value

