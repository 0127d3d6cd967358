(** A small-scope formal model of the modified B-Consensus round core.

    Section 5 of the paper only sketches the algorithm, so our
    implementation ({!Bconsensus.Modified_b_consensus}) reconstructs the
    round structure (oracle suggestion → report → ⊥-lock).  This model
    lets the explorer check the two lemmas that reconstruction's safety
    argument rests on, mechanically:

    - {b lock uniqueness}: no round can contain two non-⊥ locks with
      different values;
    - {b agreement}: no two processes decide different values, in any
      interleaving, under a {e fully adversarial} oracle (here, "the
      first delivered First of round r" is a nondeterministic choice
      among all round-r Firsts — a superset of every possible ordering
      oracle, including a broken one, since safety must not depend on
      the hold-back).

    Same abstractions as {!Model}: time-free, grow-only message set
    (subsumes loss/duplication/reordering/crash-restart), bounded round
    numbers. *)

type msg =
  | First of { src : int; round : int; value : int }
  | Report of { src : int; round : int; value : int }
  | Lock of { src : int; round : int; value : int option }

type proc = {
  round : int;
  est : int;
  reported : int option;  (** value reported this round *)
  locked : int option option;  (** [Some lv] once locked *)
  decided : int;  (** -1 = undecided *)
}

module Msgset : Set.S with type elt = msg

type state = { procs : proc array; msgs : Msgset.t }

(** Deliberate bugs, to validate that the checker finds real unsoundness:
    [Decide_on_any_some] decides as soon as any collected lock is non-⊥
    (instead of all) — breaks agreement (deep counterexample);
    [Lock_on_first_report] locks the first report's value without
    requiring the majority to agree — breaks lock uniqueness (shallow
    counterexample). *)
type mutation = Decide_on_any_some | Lock_on_first_report

type config = {
  n : int;
  proposals : int array;
  max_round : int;
  mutation : mutation option;
}

val initial : config -> state

val successors : config -> state -> state list

(** {2 State identity}

    [Set.t] values are not canonical (equal sets can differ in AVL
    shape), so states must never be compared or hashed structurally. *)

(** Canonical structural key — the exact-mode visited key. *)
val key : state -> proc list * msg list

(** 128-bit fingerprint of a canonical, prefix-decodable word encoding
    of the state. *)
val fingerprint : state -> Fingerprint.t

(** {2 Properties} *)

val agreement : state -> bool

val validity : config -> state -> bool

(** No two conflicting non-⊥ locks in any round. *)
val lock_uniqueness : state -> bool

val pp_state : Format.formatter -> state -> unit
