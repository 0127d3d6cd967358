(** Chaos campaign runner: a live cluster behind the {!Proxy}, the
    {!Smr.Client} load generator pushed through the scheduled faults,
    and the robustness contract asserted at the end:

    - {b lossless}: every submitted command completed (at-least-once
      delivery with failover/resubmission);
    - {b exactly-once effects}: the load is {!Smr.Client.Unique_puts},
      so resubmissions are idempotent and the final KV state must hold
      exactly the written values — sampled keys are verified;
    - {b agreement}: replicas' order-independent KV checksums match;
    - {b recovery}: the latency samples satisfy the paper's recovery
      bound after the schedule's stabilization point
      ({!Smr.Recovery.check}). *)

type mode =
  | In_process
      (** replicas on threads in this process, probed directly — tests
          and bench *)
  | Subprocess of {
      argv :
        id:int -> cluster:string -> bind:string -> snapshot:string ->
        string array;
          (** command line for one replica (typically
              [consensus_sim serve --id .. --cluster .. --bind ..]);
              stdout/stderr are redirected to a log the campaign parses
              for the shutdown [kv_checksum=]/[kv_applied=] tags *)
      dir : string;  (** scratch directory for snapshots and logs *)
    }

type config = {
  schedule : Schedule.t;
  commands : int;
  pipeline : int;
  value_bytes : int;
  client_timeout : float;
      (** per-wait receive timeout — the client's failover trigger under
          a partition, so it must sit well inside the recovery bound's
          stall allowance *)
  mode : mode;
  verbose : bool;
}

val default_config : Schedule.t -> config
(** 50k commands, pipeline 128, 16-byte values, 0.75 s client timeout,
    [In_process]. *)

type check = { name : string; ok : bool; detail : string }

type outcome = {
  checks : check list;
  report : Smr.Client.report option;  (** [None] if the client died *)
  recovery : Smr.Recovery.verdict option;
  registry : Sim.Registry.t;
      (** the proxy's [chaos_*] (and its loop's [netio_*]) counters *)
}

(** A cluster of [n] replicas behind the proxy, each replica and the
    proxy running its loop on a thread of this process — the
    [In_process] mode's setup, exposed so tests can reach the replica
    registries and KV state directly. *)
type cluster = {
  proxy : Proxy.t;
  registry : Sim.Registry.t;  (** the proxy's counters *)
  replicas : Smr.Replica.t array;
  fronts : (string * int) array;  (** the proxy's client-facing endpoints *)
  wall_t0 : float;  (** wall time the schedule's clock started *)
  stop : unit -> unit;  (** stop and join every loop, close the proxy *)
}

val start_in_process : ?verbose:bool -> Schedule.t -> cluster
(** Replica seeds come from the schedule's seed. *)

val run : config -> outcome
(** Raises [Invalid_argument] on a malformed config; everything else —
    including a cluster that never makes progress — surfaces as failed
    checks. *)

val ok : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit
(** One line per check: [ok name: detail] / [FAIL name: detail]. *)


