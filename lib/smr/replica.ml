(* One real process of the replicated KV service: a Netio event loop
   that speaks Wire frames to its peers and clients and drives the
   unmodified Multi_paxos protocol through a hand-built Runtime.ctx.

   Delivery discipline: a protocol handler must never run re-entrantly
   (the state is threaded functionally through a single mutable slot),
   so self-addressed sends/broadcasts go through [selfq] and are drained
   by [service] after the current handler returns.

   Output discipline: handlers only enqueue.  Peer messages and client
   responses collect in each connection's output region, and [service]
   flushes every touched connection once, after it goes quiet — one
   write per connection per pass, so a peer is woken once with the
   whole pass's traffic rather than mid-pass by its first message.

   Every outgoing peer message and client response is encoded once,
   into the replica's one frame buffer, and blitted from there into
   each destination's output region.  The frame is valid only until
   the next [encode]: nothing may encode between an [encode] and the
   last blit of its bytes. *)

module Netio = Realtime.Netio

type config = {
  id : int;
  cluster : (string * int) array;
  bind : (string * int) option;
      (* listen here instead of cluster.(id): lets a chaos proxy own the
         advertised address while the replica hides on a backend port *)
  delta : float;
  batch : int;  (* max client commands folded into one decree *)
  window : int;  (* max own decrees in flight (pipelining depth) *)
  snapshot : string option;  (* durable-essence path; None = volatile *)
  snapshot_period : float;
  seed : int;
  verbose : bool;
}

let default_config ~id ~cluster =
  {
    id;
    cluster;
    bind = None;
    delta = 0.05;
    batch = 64;
    window = 32;
    snapshot = None;
    snapshot_period = 0.05;
    seed = 1;
    verbose = false;
  }

type kind = Pending | Peer_link of int | Client_link

type t = {
  cfg : config;
  n : int;
  dcfg : Dgl.Config.t;
  proto : (Smr_messages.t, Multi_paxos.state) Sim.Runtime.protocol;
  io : Netio.t;
  registry : Sim.Registry.t;
  kv : Kv_state.t;
  mutable port : int;
  mutable peer_ports : int array;
  peers : Netio.conn option array;  (* own outbound link per peer *)
  kinds : (int, kind) Hashtbl.t;  (* inbound conn_id -> role *)
  clients : (int, Netio.conn) Hashtbl.t;
  touched : (int, Netio.conn) Hashtbl.t;  (* clients with unflushed output *)
  mutable frame : Bytes.t;  (* the last [encode]d frame, at offset 0 *)
  selfq : (int * Smr_messages.t) Queue.t;
  backlog : Command.t Queue.t;  (* accepted, not yet injected *)
  reply_map : (int, int * int * float) Hashtbl.t;
      (* uid -> (client conn_id, client seq, accept time) *)
  outstanding : (int, unit) Hashtbl.t;  (* injected decree uids *)
  mutable inflight : int;
  mutable next_uid : int;
  mutable applied_upto : int;
  mutable st : Multi_paxos.state option;
  mutable ctx : (Smr_messages.t, Multi_paxos.state) Sim.Runtime.ctx option;
  mutable dispatching : bool;
  mutable dirty : bool;
  mutable running : bool;
}

let registry t = t.registry

let port t = t.port

let set_peer_ports t ports =
  if Array.length ports <> t.n then
    invalid_arg "Replica.set_peer_ports: wrong length";
  t.peer_ports <- Array.copy ports

let chosen_count t =
  match t.st with Some st -> Multi_paxos.chosen_upto st | None -> 0

let is_leading t =
  match t.st with Some st -> Multi_paxos.leading st | None -> false

let kv_get t key = Kv_state.get t.kv key

let kv_checksum t = Kv_state.checksum t.kv

let kv_applied t = Kv_state.applied t.kv

(* A uid is [seq * n + id]: unique across members by its residue, and
   across one member's boots because boot [k] starts [seq] at
   [k lsl uid_seq_bits] (see [boot_incarnation]).  The low bits stay
   sequential, which is what keeps [Kv_state]'s reply cache local. *)
let uid_seq_bits = 40

let fresh_uid t =
  let u = t.next_uid in
  t.next_uid <- u + 1;
  (u * t.n) + t.cfg.id

let log t fmt =
  if t.cfg.verbose then
    Printf.eprintf ("replica %d: " ^^ fmt ^^ "\n%!") t.cfg.id
  else Printf.ifprintf stderr fmt

(* ---- peer links (full mesh of unidirectional outbound conns) ---- *)

let rec ensure_peer t j =
  if t.running && j <> t.cfg.id then
    match t.peers.(j) with
    | Some _ -> ()
    | None -> (
        let host, _ = t.cfg.cluster.(j) in
        let port = t.peer_ports.(j) in
        if port > 0 then
          match Netio.connect t.io ~host ~port with
          | c ->
              t.peers.(j) <- Some c;
              Netio.set_callbacks c
                ~on_data:(fun _ -> ())
                ~on_close:(fun _ ->
                  t.peers.(j) <- None;
                  if t.running then
                    Netio.after t.io 0.2 (fun () -> ensure_peer t j));
              Netio.send t.io c
                (Wire.to_bytes (Wire.Hello { sender = t.cfg.id }))
          | exception _ ->
              Netio.after t.io 0.2 (fun () -> ensure_peer t j))

(* The frame buffer starts at [frame_small] bytes and grows to fit the
   largest frame of a service pass; past [frame_cap] it shrinks back at
   the end of the pass, so a burst of large frames does not keep its
   footprint alive (the same policy as Netio's output regions). *)
let frame_small = 4096
let frame_cap = 65536

(* Write [msg] into [t.frame] at offset 0 and return its length. *)
let encode t msg =
  match Wire.write t.frame 0 msg with
  | len -> len
  | exception Invalid_argument _ ->
      let size = Wire.size msg in
      t.frame <- Bytes.create (max size (2 * Bytes.length t.frame));
      Wire.write t.frame 0 msg

(* the first [len] bytes of [t.frame] are an encoded [Wire.Peer];
   [service] flushes the link *)
let send_frame t j len =
  ensure_peer t j;
  match t.peers.(j) with
  | Some c -> Netio.enqueue_sub c t.frame 0 len
  | None -> Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_dropped_sends"

let send_peer t j msg = send_frame t j (encode t (Wire.Peer msg))

(* responses to a client likewise wait for the end of the pass *)
let respond t conn seq reply =
  Netio.enqueue_sub conn t.frame 0 (encode t (Wire.Response { seq; reply }));
  Hashtbl.replace t.touched (Netio.conn_id conn) conn

let flush_output t =
  (* snapshot first: a failed write closes the connection, and its
     on_close removes it from [touched] *)
  (* lint: allow R3 — flush order across distinct clients is moot *)
  let conns = Hashtbl.fold (fun _ conn acc -> conn :: acc) t.touched [] in
  Hashtbl.clear t.touched;
  List.iter (fun conn -> Netio.flush t.io conn) conns;
  (* a flush with nothing queued is free *)
  Array.iter (function Some c -> Netio.flush t.io c | None -> ()) t.peers;
  if Bytes.length t.frame > frame_cap then t.frame <- Bytes.create frame_small

(* ---- protocol driving ---- *)

let deliver t dst msg =
  if dst = t.cfg.id then Queue.add (t.cfg.id, msg) t.selfq
  else send_peer t dst msg

let rec make_ctx t : (Smr_messages.t, Multi_paxos.state) Sim.Runtime.ctx =
  {
    Sim.Runtime.self = t.cfg.id;
    n = t.n;
    proposal = 0;
    local_time = (fun () -> Netio.now t.io);
    send = (fun ~dst msg -> deliver t dst msg);
    broadcast =
      (fun msg ->
        (* encoded once, the same bytes enqueued on every peer link *)
        let len = encode t (Wire.Peer msg) in
        for j = 0 to t.n - 1 do
          if j = t.cfg.id then Queue.add (t.cfg.id, msg) t.selfq
          else send_frame t j len
        done);
    set_timer =
      (fun ~local_delay ~tag ->
        Netio.after t.io local_delay (fun () ->
            if t.running then begin
              (match (t.st, t.ctx) with
              | Some st, Some ctx ->
                  t.st <- Some (t.proto.Sim.Runtime.on_timer ctx st ~tag)
              | (Some _ | None), _ -> ());
              service t
            end));
    (* Durability is asynchronous by design: persist only marks the
       state dirty and the essence is fsynced on the snapshot timer, so
       promises/votes emitted within the last ~snapshot_period can be
       forgotten across a SIGKILL.  This is a documented divergence from
       the paper's synchronous stable-storage model — see "Durability
       caveat" in DESIGN.md §5h for the safety consequences and why we
       accept them. *)
    persist = (fun _ -> t.dirty <- true);
    decide = (fun _ -> ());
    has_decided = (fun () -> false);
    rng = Sim.Prng.create (Int64.of_int (t.cfg.seed + t.cfg.id));
    scratch = Sim.Scratch.create ();
    note = (fun _ -> ());
    count = (fun name -> Sim.Registry.inc ~proc:t.cfg.id t.registry name);
    oracle_time = (fun () -> Netio.now t.io);
  }

(* Apply newly chosen instances to the KV store and answer clients. *)
and apply_chosen t =
  match t.st with
  | None -> ()
  | Some st ->
      let upto = Multi_paxos.chosen_upto st in
      while t.applied_upto < upto do
        (match Multi_paxos.chosen_at st t.applied_upto with
        | None -> ()
        | Some cmd ->
            if Hashtbl.mem t.outstanding cmd.Command.id then begin
              Hashtbl.remove t.outstanding cmd.Command.id;
              t.inflight <- t.inflight - 1
            end;
            Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_decrees";
            let replies = Kv_state.apply t.kv cmd in
            List.iter
              (fun (uid, r) ->
                match Hashtbl.find_opt t.reply_map uid with
                | None -> ()
                | Some (cid, seq, t0) ->
                    Hashtbl.remove t.reply_map uid;
                    let lat = Netio.now t.io -. t0 in
                    Sim.Registry.observe t.registry
                      "serve_commit_latency_delta" (lat /. t.cfg.delta);
                    Sim.Registry.inc ~proc:t.cfg.id t.registry
                      "serve_committed";
                    match Hashtbl.find_opt t.clients cid with
                    | Some conn -> respond t conn seq (Wire.reply_of_kv r)
                    | None -> ())
              replies);
        t.applied_upto <- t.applied_upto + 1
      done

(* Fold the client backlog into decrees, up to the pipelining window. *)
and maybe_inject t =
  let injected = ref false in
  while t.inflight < t.cfg.window && not (Queue.is_empty t.backlog) do
    let k = Stdlib.min t.cfg.batch (Queue.length t.backlog) in
    let rec take k acc =
      if k = 0 then List.rev acc else take (k - 1) (Queue.pop t.backlog :: acc)
    in
    let cmd =
      match take k [] with
      | [ single ] -> single
      | items -> Command.make ~id:(fresh_uid t) (Command.Batch items)
    in
    Hashtbl.replace t.outstanding cmd.Command.id ();
    t.inflight <- t.inflight + 1;
    Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_batches";
    Queue.add (t.cfg.id, Smr_messages.Forward { cmd }) t.selfq;
    (* eager forward when someone else leads; the protocol's epsilon
       resend tick repairs any loss *)
    (match t.st with
    | Some st when not (Multi_paxos.leading st) ->
        let leader =
          Consensus.Ballot.owner ~n:t.n (Multi_paxos.mbal st)
        in
        if leader <> t.cfg.id then
          send_peer t leader (Smr_messages.Forward { cmd })
    | Some _ | None -> ());
    injected := true
  done;
  !injected

(* Drain self-deliveries, apply, inject — until quiescent; then flush
   everything the pass enqueued. *)
and service t =
  if not t.dispatching then begin
    t.dispatching <- true;
    let continue = ref true in
    (try
       while !continue do
         while not (Queue.is_empty t.selfq) do
           let src, msg = Queue.pop t.selfq in
           match (t.st, t.ctx) with
           | Some st, Some ctx ->
               t.st <-
                 Some (t.proto.Sim.Runtime.on_message ctx st ~src msg)
           | (Some _ | None), _ -> Queue.clear t.selfq
         done;
         apply_chosen t;
         let injected = maybe_inject t in
         continue := injected || not (Queue.is_empty t.selfq)
       done
     with e ->
       t.dispatching <- false;
       raise e);
    t.dispatching <- false;
    flush_output t
  end

(* ---- frames ---- *)

let accept_request t conn seq (cmd : Command.t) =
  match cmd.Command.op with
  | Command.Batch _ ->
      (* The batch opcode is replica-internal (WIRE.md §5): admitting a
         client batch would nest inside this replica's own backlog
         folding (making [Command.make] reject the decree), and its
         client-chosen inner ids would alias the server-stamped uid
         namespace keying [reply_map] and the exactly-once cache. *)
      Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_rejected";
      respond t conn seq (Wire.R_error "request must not carry a batch command")
  | Command.Set _ | Command.Add _ | Command.Noop | Command.Kv_get _
  | Command.Kv_put _ | Command.Kv_cas _ -> (
      match Command.make ~id:(fresh_uid t) cmd.Command.op with
      | cmd ->
          Hashtbl.replace t.reply_map cmd.Command.id
            (Netio.conn_id conn, seq, Netio.now t.io);
          Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_requests";
          Queue.add cmd t.backlog
      | exception Invalid_argument reason ->
          respond t conn seq (Wire.R_error reason))

let on_frame t conn msg =
  let cid = Netio.conn_id conn in
  match Hashtbl.find_opt t.kinds cid with
  | None -> Netio.close t.io conn
  | Some Pending -> (
      match msg with
      | Wire.Hello { sender } ->
          if sender >= 0 && sender < t.n && sender <> t.cfg.id then begin
            Hashtbl.replace t.kinds cid (Peer_link sender);
            log t "peer %d connected" sender
          end
          else if sender = -1 then begin
            Hashtbl.replace t.kinds cid Client_link;
            Hashtbl.replace t.clients cid conn;
            log t "client connected (conn %d)" cid
          end
          else Netio.close t.io conn
      | Wire.Peer _ | Wire.Request _ | Wire.Response _ ->
          (* first frame must identify the sender *)
          Netio.close t.io conn)
  | Some (Peer_link src) -> (
      match msg with
      | Wire.Peer m -> Queue.add (src, m) t.selfq
      | Wire.Hello _ -> ()
      | Wire.Request _ | Wire.Response _ -> Netio.close t.io conn)
  | Some Client_link -> (
      match msg with
      | Wire.Request { seq; cmd } -> accept_request t conn seq cmd
      | Wire.Hello _ -> ()
      | Wire.Peer _ | Wire.Response _ -> Netio.close t.io conn)

(* Decode every buffered frame before servicing: a pipelined burst of
   client requests then folds into one decree instead of one decree per
   request (an order of magnitude in both decree count and messages). *)
let drain_frames t conn =
  let rec decode_all () =
    if not (Netio.closing conn) then begin
      let buf, pos, avail = Netio.input conn in
      match Wire.decode buf ~pos ~avail with
      | Ok (msg, used) ->
          Netio.consume conn used;
          on_frame t conn msg;
          decode_all ()
      | Error `Need_more -> ()
      | Error (`Error e) ->
          Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_bad_frames";
          log t "dropping conn %d: %s" (Netio.conn_id conn)
            (Format.asprintf "%a" Wire.pp_error e);
          Netio.close t.io conn
    end
  in
  decode_all ();
  service t

(* ---- durable essence ---- *)

let essence_to_msg (e : Multi_paxos.essence) =
  Wire.Peer
    (Smr_messages.M1b
       {
         mbal = e.Multi_paxos.e_mbal;
         votes = e.Multi_paxos.e_votes;
         chosen_upto = e.Multi_paxos.e_chosen_upto;
       })

(* fsync before the rename: otherwise a crash can leave the renamed
   file empty and the replica restarts without even the state it
   thought it had written *)
let write_atomically path bytes =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_bytes oc bytes;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc)
   with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename tmp path

let write_snapshot t =
  match (t.cfg.snapshot, t.st) with
  | Some path, Some st when t.dirty ->
      t.dirty <- false;
      write_atomically path
        (Wire.to_bytes (essence_to_msg (Multi_paxos.essence st)));
      Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_snapshots"
  | (Some _ | None), _ -> ()

exception Bad_snapshot of string

(* [None] only when the file is absent.  A file that exists but does
   not hold exactly one acceptor-state frame (torn write, flipped bit,
   wrong tag) would otherwise boot the member empty, forgetting the
   promises and votes it already gave — so it is refused instead. *)
let load_snapshot path =
  if not (Sys.file_exists path) then None
  else
    let bad why = raise (Bad_snapshot (Printf.sprintf "%s: %s" path why)) in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> bad e
    | s -> (
        let bytes = Bytes.of_string s in
        let len = Bytes.length bytes in
        match Wire.decode bytes ~pos:0 ~avail:len with
        | Ok (Wire.Peer (Smr_messages.M1b { mbal; votes; chosen_upto }), used)
          when used = len ->
            Some
              {
                Multi_paxos.e_mbal = mbal;
                e_votes = votes;
                e_chosen_upto = chosen_upto;
              }
        | Ok (msg, used) when used = len ->
            bad ("holds " ^ Wire.info msg ^ ", not acceptor state")
        | Ok (_, used) -> bad (Printf.sprintf "%d trailing bytes" (len - used))
        | Error `Need_more -> bad "truncated frame"
        | Error (`Error e) -> bad (Format.asprintf "%a" Wire.pp_error e))

(* The boot count of a durable member lives in a sidecar of its
   snapshot, so that ids stamped before a kill are never stamped again:
   the chosen log would drop the new command as a duplicate decree, or
   answer it with the old command's cached reply.  The sidecar is
   durable before the member serves.  Ids stay below 2^62 while a boot
   stamps fewer than 2^uid_seq_bits of them. *)
let boot_incarnation t path =
  let file = path ^ ".incarnation" in
  let bad why = raise (Bad_snapshot (Printf.sprintf "%s: %s" file why)) in
  let inc =
    if not (Sys.file_exists file) then 0
    else
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error e -> bad e
      | s -> (
          match int_of_string_opt (String.trim s) with
          | Some k when k >= 0 -> k + 1
          | Some _ | None -> bad "not an incarnation number")
  in
  if inc >= (1 lsl (62 - uid_seq_bits)) / t.n then bad "incarnations exhausted";
  write_atomically file (Bytes.of_string (string_of_int inc ^ "\n"));
  t.next_uid <- inc lsl uid_seq_bits

(* ---- lifecycle ---- *)

let create cfg =
  let n = Array.length cfg.cluster in
  if n = 0 then invalid_arg "Replica.create: empty cluster";
  if cfg.id < 0 || cfg.id >= n then invalid_arg "Replica.create: bad id";
  if cfg.batch < 1 || cfg.window < 1 then
    invalid_arg "Replica.create: batch and window must be >= 1";
  let dcfg = Dgl.Config.make ~n ~delta:cfg.delta () in
  let proto = Multi_paxos.protocol dcfg ~workloads:(Array.make n []) in
  let t =
    {
      cfg;
      n;
      dcfg;
      proto;
      io = Netio.create ();
      registry = Sim.Registry.create ();
      kv = Kv_state.create ();
      port = 0;
      peer_ports = Array.map snd cfg.cluster;
      peers = Array.make n None;
      kinds = Hashtbl.create 16;
      clients = Hashtbl.create 16;
      touched = Hashtbl.create 16;
      frame = Bytes.create frame_small;
      selfq = Queue.create ();
      backlog = Queue.create ();
      reply_map = Hashtbl.create 1024;
      outstanding = Hashtbl.create 64;
      inflight = 0;
      next_uid = 0;
      applied_upto = 0;
      st = None;
      ctx = None;
      dispatching = false;
      dirty = false;
      running = false;
    }
  in
  Netio.set_registry t.io t.registry;
  (* A peer that stalls mid-frame (or a proxy dripping bytes) must not
     hold a connection forever; anything past one max frame plus slack
     in unconsumed input is a protocol violation. *)
  Netio.set_limits t.io ~partial_timeout:10.
    ~max_input:(Wire.header_len + Wire.max_payload + 65536)
    ();
  let host, port =
    match cfg.bind with Some hp -> hp | None -> cfg.cluster.(cfg.id)
  in
  t.port <-
    Netio.listen t.io ~host ~port ~on_accept:(fun conn ->
        Hashtbl.replace t.kinds (Netio.conn_id conn) Pending;
        Netio.set_callbacks conn
          ~on_data:(fun c -> drain_frames t c)
          ~on_close:(fun c ->
            let cid = Netio.conn_id c in
            Hashtbl.remove t.kinds cid;
            Hashtbl.remove t.clients cid;
            Hashtbl.remove t.touched cid));
  t.peer_ports.(cfg.id) <- t.port;
  t.ctx <- Some (make_ctx t);
  t

let run t =
  let restored =
    match t.cfg.snapshot with
    | None -> None
    | Some path -> (
        try
          let e = load_snapshot path in
          boot_incarnation t path;
          e
        with Bad_snapshot _ as e ->
          Netio.shutdown t.io;
          raise e)
  in
  t.running <- true;
  for j = 0 to t.n - 1 do
    ensure_peer t j
  done;
  (match t.ctx with
  | None -> ()
  | Some ctx -> (
      match restored with
      | Some e ->
          log t "restoring from snapshot (chosen_upto %d)"
            e.Multi_paxos.e_chosen_upto;
          Sim.Registry.inc ~proc:t.cfg.id t.registry "serve_restores";
          t.st <- Some (Multi_paxos.restore t.dcfg ctx e)
      | None -> t.st <- Some (t.proto.Sim.Runtime.on_boot ctx)));
  service t;
  (* The essence serializes the whole chosen log, so a fixed cadence
     would eat the event loop as the log grows.  Bound the duty cycle
     instead: the next snapshot waits at least 20x however long the
     last write took (so snapshotting costs at most ~5% of the loop). *)
  let rec snapshot_loop () =
    if t.running then begin
      let before = Netio.now t.io in
      write_snapshot t;
      let took = Netio.now t.io -. before in
      let delay = Float.max t.cfg.snapshot_period (20. *. took) in
      Netio.after t.io delay snapshot_loop
    end
  in
  (match t.cfg.snapshot with
  | Some _ -> Netio.after t.io t.cfg.snapshot_period snapshot_loop
  | None -> ());
  log t "listening on port %d" t.port;
  Netio.run t.io;
  t.dirty <- true;
  write_snapshot t;
  Netio.shutdown t.io

let stop t =
  t.running <- false;
  Netio.stop t.io
