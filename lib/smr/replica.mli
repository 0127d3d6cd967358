(** A real process of the replicated key/value service.

    A replica is a {!Realtime.Netio} event loop that

    - listens on its cluster endpoint and speaks {!Wire} frames;
    - keeps one outbound connection per peer (reconnecting with backoff;
      frames sent while a link is down are dropped — the protocol's
      digest gossip and epsilon resend tick repair the loss);
    - drives the {e unmodified} {!Multi_paxos} protocol through a
      hand-built {!Sim.Runtime.ctx} whose clock is the loop's and whose
      self-addressed messages are deferred to a queue drained between
      handlers (a handler never runs re-entrantly);
    - batches accepted client commands into [Batch] decrees (up to
      [batch] per decree) and pipelines up to [window] of its own
      decrees in flight;
    - applies the contiguous chosen prefix to a {!Kv_state} and answers
      each client on the connection that submitted the command;
    - optionally snapshots its {!Multi_paxos.essence} to disk (written
      atomically: fsync, then rename; encoded as a single Wire M1b
      frame) so a SIGKILLed process restarts into the same ballot/vote
      state it last persisted, then catches up the chosen tail from its
      peers.  Snapshotting is periodic (group-commit style), so the
      last ~[snapshot_period] of promises/votes can be lost across a
      SIGKILL — an explicit divergence from the paper's synchronous
      stable-storage model (see "Durability caveat", DESIGN.md §5h);
      recovery additionally relies on a majority of peers staying up,
      which is the crash model of the paper's restart analysis.

    Metrics land in a {!Sim.Registry} under the [serve_*] family (see
    OBSERVABILITY.md). *)

type config = {
  id : int;  (** this replica's index into [cluster] *)
  cluster : (string * int) array;  (** (host, port) per replica *)
  bind : (string * int) option;
      (** listen here instead of [cluster.(id)] — lets a chaos proxy own
          the advertised cluster address while this replica serves from a
          backend port the proxy forwards to; [None] binds the cluster
          address directly *)
  delta : float;  (** the protocol's post-stabilization delay bound *)
  batch : int;  (** max client commands folded into one decree *)
  window : int;  (** max own decrees in flight (pipelining depth) *)
  snapshot : string option;  (** durable-essence path; [None] = volatile *)
  snapshot_period : float;  (** seconds between dirty-state snapshots *)
  seed : int;  (** PRNG seed (per-replica offset applied) *)
  verbose : bool;  (** progress chatter on stderr *)
}

val default_config : id:int -> cluster:(string * int) array -> config
(** delta 0.05s, batch 64, window 32, snapshot off, 50 ms snapshot
    period. *)

type t

val create : config -> t
(** Bind the listener (port [0] picks a free port — see {!port}) and
    build the protocol; does not start serving.  Raises
    [Invalid_argument] on a malformed config and [Unix.Unix_error] if
    the bind fails. *)

val port : t -> int
(** The actually bound listening port. *)

val set_peer_ports : t -> int array -> unit
(** Override the peers' ports before {!run} — for tests that bind every
    replica on port [0] and exchange the real ports afterwards. *)

exception Bad_snapshot of string
(** The snapshot file exists but cannot be read, or does not decode to
    acceptor state; or its incarnation sidecar ([<snapshot>.incarnation],
    the member's boot count) does not hold a boot count.  The payload
    names the file and the reason. *)

val run : t -> unit
(** Serve until {!stop}: boot the protocol (or restore it from the
    snapshot file when one exists), then run the event loop.  A member
    with a snapshot path first bumps its boot count in the sidecar
    (fsynced, then renamed) and stamps command ids from a range no
    earlier boot used, so a restarted member never reuses an id already
    in the chosen log.  On exit a final snapshot is written and every
    socket is closed.  Only an absent snapshot file boots the member
    empty: an unreadable or undecodable one raises {!Bad_snapshot}
    (after closing the sockets) rather than forget the promises and
    votes it recorded. *)

val stop : t -> unit
(** Stop {!run} from any thread or signal handler. *)

val registry : t -> Sim.Registry.t
(** The [serve_*] counters and latency histogram. *)

(** {2 Probes for tests and the smoke harness} *)

val chosen_count : t -> int

val is_leading : t -> bool

val kv_get : t -> string -> string option
(** Local (non-linearizable) read of the applied store. *)

val kv_checksum : t -> int
(** Order-independent digest of the applied KV state — replicas that
    applied the same log prefix agree on it (the chaos campaign's
    agreement check). *)

val kv_applied : t -> int
(** Number of distinct commands applied (duplicates excluded). *)
