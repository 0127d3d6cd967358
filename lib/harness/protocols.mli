(** The single-decree protocols, one table entry each.

    Every caller that picks a protocol by name — the CLI's [run],
    [sweep], [realtime] and [fuzz] commands, {!Fuzz} and the
    conformance grid — builds it from {!entry}.  An entry holds the
    protocol's name, the facts about it that more than one caller reads,
    and a builder that returns the engine protocol {!packed} with its
    message and state types hidden.  Adding a protocol is adding a
    constructor and its entry.  {!Experiments} keeps its own tuned
    constructors. *)

(** [Ungated_paxos] is modified Paxos with condition (ii) of Start
    Phase 1 dropped (the A1 ablation) — an intentionally broken variant
    kept as a fuzzer target. *)
type protocol =
  | Modified_paxos
  | Ungated_paxos
  | Traditional_paxos
  | Rotating_coordinator
  | B_consensus

(** A built protocol with its message and state types hidden.  [inject]
    encodes an obsolete phase 1a of session [session] owned by [src]
    (ballot [session * n + src]); it is [Some] exactly when the entry
    [takes_injections].  [timer_bounds] is what
    {!Invariants.check_run} takes: [(delta, sigma)] for the modified
    Paxos family, [None] for the rest. *)
type packed =
  | Packed : {
      protocol : ('msg, 'state) Sim.Engine.protocol;
      inject : (src:int -> session:int -> 'msg) option;
      timer_bounds : (float * float) option;
    }
      -> packed

type entry = {
  protocol : protocol;
  name : string;  (** CLI and corpus-JSON name, e.g. ["b-consensus"] *)
  correct : bool;
      (** [false] for the A1 ablation only: it is left out of the
          default fuzz mix and the conformance grid *)
  takes_injections : bool;
      (** obsolete phase 1a messages exist for it (the Paxos family) *)
  covers_restarts : bool;
      (** the paper bounds restart recovery for it (the modified
          algorithms, Section 4); the fuzzer's liveness check then also
          covers restarted processes *)
  liveness_budget : n:int -> injections:int -> float;
      (** the fuzzer's decision deadline after [ts], in units of delta:
          a loose multiple of the protocol's bound *)
  build :
    ?sigma:float ->
    ?epsilon:float ->
    n:int ->
    delta:float ->
    ts:float ->
    rho:float ->
    faults:Sim.Fault.t ->
    unit ->
    packed;
      (** [sigma] and [epsilon] reach {!Dgl.Config.make} for the modified
          Paxos family and are ignored by the others; [ts] and [faults]
          feed traditional Paxos's leader oracle *)
}

val entry : protocol -> entry

(** Every entry, in declaration order. *)
val table : entry list

val name : protocol -> string

(** Inverse of {!name} (case-insensitive). *)
val of_name : string -> protocol option
