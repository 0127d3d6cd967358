(** Serializable fault-injection scenarios.

    A fuzz scenario is the fully declarative counterpart of
    {!Sim.Scenario.t}: where the engine scenario holds a compiled
    network closure, this one holds a {!Sim.Network_spec.t}; where the
    harness passes typed in-flight injections to {!Sim.Engine.run}, this
    one holds their protocol-independent description.  The result is a
    plain data term with a lossless JSON form — the unit the fuzzer
    generates, delta-debugs, persists to the regression corpus, and
    replays. *)

(** Which implementation the scenario runs; its JSON form is
    {!Protocols.name}.  [Ungated_paxos] (the A1 ablation) is kept as a
    fuzzer target: campaigns against it must find the obsolete-ballot
    liveness attack. *)
type protocol = Protocols.protocol =
  | Modified_paxos
  | Ungated_paxos
  | Traditional_paxos
  | Rotating_coordinator
  | B_consensus

(** An obsolete message placed directly into the network: a phase 1a of
    session [session] owned by [src] (ballot [session * n + src]),
    delivered to [dst] at instant [at] — the paper's "message sent
    before [TS] by a process that has since failed", without simulating
    the execution that produced it.  Compiled by the protocol's
    {!Protocols.packed} encoder; the round-based protocols take no
    injections. *)
type injection = { at : float; src : int; dst : int; session : int }

type t = {
  name : string;
  protocol : protocol;
  n : int;
  ts : float;
  delta : float;
  rho : float;
  seed : int64;
  horizon : float;
  network : Sim.Network_spec.t;
  faults : Sim.Fault.t;
  proposals : int array;
  injections : injection list;
}

(** The engine scenario this term describes ([record_trace] defaults to
    [true]: fuzzer runs are always checked through their trace). *)
val to_scenario : ?record_trace:bool -> t -> Sim.Scenario.t

(** Everything {!Sim.Scenario.validate} checks, plus: the network spec
    is well-formed, injection endpoints are in range with non-negative
    times and sessions, and the protocol accepts injections
    (round-based protocols take none). *)
val validate : t -> (unit, string) result

(** Number of discrete adversarial choices: injections, fault events,
    initially-down processes, network complexity, plus one for nonzero
    clock drift.  The shrinker minimizes this measure and never lets it
    grow. *)
val size : t -> int

val equal : t -> t -> bool

val to_json : t -> Sim.Json.t

val of_json : Sim.Json.t -> (t, string) result

(** One-line summary: protocol, n, network name, fault/injection
    counts. *)
val pp : Format.formatter -> t -> unit
