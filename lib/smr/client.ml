(* Blocking pipelined client: one TCP connection to a cluster member,
   Wire frames both ways, failover to the next member on error with
   resubmission of everything outstanding (at-least-once — replicas
   assign fresh command ids, so a resubmitted command may execute
   twice; fine for the KV workload, documented in WIRE.md). *)

module Netio = Realtime.Netio

exception Disconnected of string

type t = {
  cluster : (string * int) array;
  mutable fd : Unix.file_descr option;
  mutable member : int;
  mutable inbuf : Bytes.t;
  mutable in_off : int;
  mutable in_len : int;
  mutable next_seq : int;
  mutable reconnects : int;
  mutable backoff_total : float;  (* seconds slept inside [reconnect] *)
  rng : Sim.Prng.t;  (* jitter source — seeded, so retry timing replays *)
  verbose : bool;
}

let log t fmt =
  if t.verbose then Printf.eprintf ("client: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let resolve_addr (host, port) =
  Unix.ADDR_INET (Netio.resolve host, port)

let hello_bytes () = Wire.to_bytes (Wire.Hello { sender = -1 })

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd bytes !off (len - !off) with
    | 0 -> raise (Disconnected "write returned 0")
    | n -> off := !off + n
    | exception Unix.Unix_error (e, _, _) ->
        raise (Disconnected (Unix.error_message e))
  done

let disconnect t =
  match t.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ()

let try_connect_member t i =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (resolve_addr t.cluster.(i));
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    write_all fd (hello_bytes ());
    t.fd <- Some fd;
    t.member <- i;
    t.in_off <- 0;
    t.in_len <- 0;
    log t "connected to replica %d" i;
    true
  with
  | Unix.Unix_error _ | Disconnected _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      false

(* Capped exponential backoff with jitter: base doubles per completed
   round over the whole cluster, the jitter factor is uniform in
   [0.75, 1.25) so a fleet of clients that died together does not
   reconnect in lockstep.  Pure so tests can pin the curve. *)
let backoff_delay ?(base = 0.05) ?(cap = 1.0) ~round jitter =
  if round < 0 then invalid_arg "Client.backoff_delay: negative round";
  if jitter < 0. || jitter >= 1. then
    invalid_arg "Client.backoff_delay: jitter outside [0,1)";
  let exp = Float.min cap (base *. Float.pow 2. (float_of_int round)) in
  exp *. (0.75 +. (0.5 *. jitter))

(* Round-robin from [start] until some member accepts, backing off
   between full rounds. *)
let reconnect ?(attempts = 40) t =
  disconnect t;
  t.reconnects <- t.reconnects + 1;
  let n = Array.length t.cluster in
  let ok = ref false in
  let tries = ref 0 in
  while (not !ok) && !tries < attempts do
    let i = (t.member + 1 + !tries) mod n in
    if try_connect_member t i then ok := true
    else begin
      incr tries;
      if !tries mod n = 0 then begin
        let d = backoff_delay ~round:((!tries / n) - 1) (Sim.Prng.float t.rng 1.) in
        t.backoff_total <- t.backoff_total +. d;
        Unix.sleepf d
      end
    end
  done;
  if not !ok then raise (Disconnected "no cluster member reachable")

let connect ?(verbose = false) ?(prefer = 0) ?(backoff_seed = 1) cluster =
  if Array.length cluster = 0 then invalid_arg "Client.connect: empty cluster";
  let n = Array.length cluster in
  let t =
    {
      cluster;
      fd = None;
      (* reconnect starts probing at member+1, so aim it at [prefer] —
         spreading concurrent load generators across replicas *)
      member = (((prefer mod n) + n - 1) mod n + n) mod n;
      inbuf = Bytes.create 65536;
      in_off = 0;
      in_len = 0;
      next_seq = 0;
      reconnects = -1;  (* first connect is not a reconnect *)
      backoff_total = 0.;
      rng = Sim.Prng.create (Int64.of_int backoff_seed);
      verbose;
    }
  in
  reconnect t;
  t

let close t = disconnect t

let reconnect_count t = Stdlib.max 0 t.reconnects

let member t = t.member

let fd_exn t =
  match t.fd with Some fd -> fd | None -> raise (Disconnected "closed")

let send_request t cmd =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  write_all (fd_exn t) (Wire.to_bytes (Wire.Request { seq; cmd }));
  seq

(* Decode one frame from the receive buffer without touching the
   socket; [None] when no complete frame is buffered. *)
let buffered_frame t =
  match Wire.decode t.inbuf ~pos:t.in_off ~avail:(t.in_len - t.in_off) with
  | Ok (msg, used) ->
      t.in_off <- t.in_off + used;
      if t.in_off = t.in_len then begin
        t.in_off <- 0;
        t.in_len <- 0
      end;
      Some msg
  | Error (`Error e) ->
      raise (Disconnected (Format.asprintf "%a" Wire.pp_error e))
  | Error `Need_more -> None

(* Block (with [timeout] per select) until one full frame is buffered. *)
let rec recv_frame t ~timeout =
  match buffered_frame t with
  | Some msg -> msg
  | None ->
      let fd = fd_exn t in
      (match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> raise (Disconnected "timeout waiting for response")
      | _ :: _, _, _ ->
          (* compact before growing *)
          if t.in_off > 0 then begin
            Bytes.blit t.inbuf t.in_off t.inbuf 0 (t.in_len - t.in_off);
            t.in_len <- t.in_len - t.in_off;
            t.in_off <- 0
          end;
          let cap = Bytes.length t.inbuf in
          if cap - t.in_len < 4096 then begin
            let bigger = Bytes.create (cap * 2) in
            Bytes.blit t.inbuf 0 bigger 0 t.in_len;
            t.inbuf <- bigger
          end;
          (match
             Unix.read fd t.inbuf t.in_len (Bytes.length t.inbuf - t.in_len)
           with
          | 0 -> raise (Disconnected "connection closed by replica")
          | n -> t.in_len <- t.in_len + n
          | exception Unix.Unix_error (e, _, _) ->
              raise (Disconnected (Unix.error_message e)))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      recv_frame t ~timeout

(* Synchronous round trip (reconnects and retries on failure). *)
let request ?(timeout = 5.) t op =
  let attempt () =
    let seq = send_request t (Command.make ~id:0 op) in
    let rec await () =
      match recv_frame t ~timeout with
      | Wire.Response { seq = s; reply } when s = seq -> reply
      | Wire.Response _ | Wire.Hello _ | Wire.Peer _ | Wire.Request _ ->
          await ()
    in
    await ()
  in
  try attempt ()
  with Disconnected reason ->
    log t "round trip failed (%s); reconnecting" reason;
    reconnect t;
    attempt ()

let put t ~key ~value = request t (Command.Kv_put { key; value })

let get t key = request t (Command.Kv_get key)

let cas t ~key ~expect ~set = request t (Command.Kv_cas { key; expect; set })

(* ------------------------------------------------------------------ *)
(* Closed-loop load generator                                          *)
(* ------------------------------------------------------------------ *)

type mix =
  | Mixed  (* 70% put / 20% get / 10% cas over a shared keyspace *)
  | Unique_puts
      (* command i puts key "u<i>": idempotent, so at-least-once delivery
         yields exactly-once *effects* — what a chaos campaign asserts *)

type load = {
  commands : int;
  pipeline : int;  (* outstanding requests kept in flight *)
  value_bytes : int;
  keyspace : int;
  seed : int;
  mix : mix;
  latency_trace : string option;  (* JSONL: {"t":epoch_s,"lat":seconds} *)
}

let default_load =
  {
    commands = 100_000;
    pipeline = 64;
    value_bytes = 16;
    keyspace = 1024;
    seed = 1;
    mix = Mixed;
    latency_trace = None;
  }

type report = {
  sent : int;
  completed : int;
  resubmitted : int;
  reconnects : int;
  backoff : float;  (* seconds spent sleeping between reconnect rounds *)
  elapsed : float;
  throughput : float;  (* completed commands per second *)
  latencies : float array;  (* sorted, seconds *)
  samples : (float * float) array;
      (* (completion wall time, latency) in completion order — the
         latency trace as data, whether or not a JSONL sink was given *)
}

let gen_op rng ~mix ~keyspace ~value_bytes i =
  match mix with
  | Unique_puts ->
      Command.Kv_put
        {
          key = "u" ^ string_of_int i;
          value = Printf.sprintf "%0*d" value_bytes (i land 0xffffff);
        }
  | Mixed ->
      let key = Printf.sprintf "k%d" (Sim.Prng.int rng keyspace) in
      let roll = Sim.Prng.int rng 10 in
      if roll < 7 then
        Command.Kv_put
          { key; value = Printf.sprintf "%0*d" value_bytes (i land 0xffffff) }
      else if roll < 9 then Command.Kv_get key
      else
        Command.Kv_cas
          {
            key;
            expect = None;
            set = Printf.sprintf "%0*d" value_bytes (i land 0xffffff);
          }

let run_load ?(timeout = 10.) t load =
  if load.commands < 1 || load.pipeline < 1 then
    invalid_arg "Client.run_load: commands and pipeline must be >= 1";
  let rng = Sim.Prng.create (Int64.of_int load.seed) in
  let trace =
    match load.latency_trace with
    | Some path -> Some (open_out path)
    | None -> None
  in
  let pending = Hashtbl.create (2 * load.pipeline) in
  (* seq -> (op, send wall time) *)
  let latencies = Array.make load.commands 0. in
  let samples = Array.make load.commands (0., 0.) in
  let sent = ref 0 in
  let completed = ref 0 in
  let resubmitted = ref 0 in
  let t0 = Netio.wall () in
  (* requests are encoded into [outbuf] and written in one burst: one
     syscall per window refill instead of one per command *)
  let outbuf = Buffer.create 65536 in
  let submit op =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Wire.encode outbuf (Wire.Request { seq; cmd = Command.make ~id:0 op });
    Hashtbl.replace pending seq (op, Netio.wall ())
  in
  let flush_requests () =
    if Buffer.length outbuf > 0 then begin
      let bytes = Buffer.to_bytes outbuf in
      Buffer.clear outbuf;
      write_all (fd_exn t) bytes
    end
  in
  let top_up () =
    while Hashtbl.length pending < load.pipeline && !sent < load.commands do
      submit
        (gen_op rng ~mix:load.mix ~keyspace:load.keyspace
           ~value_bytes:load.value_bytes !sent);
      incr sent
    done;
    flush_requests ()
  in
  let resubmit_outstanding () =
    Buffer.clear outbuf;
    (* lint: allow R3 — the pipelined window is unordered by design *)
    let stuck = Hashtbl.fold (fun _ (op, _) acc -> op :: acc) pending [] in
    Hashtbl.reset pending;
    resubmitted := !resubmitted + List.length stuck;
    List.iter submit stuck;
    flush_requests ()
  in
  let handle_frame = function
    | Wire.Response { seq; reply = _ } -> (
        match Hashtbl.find_opt pending seq with
        | Some (_, ts) ->
            Hashtbl.remove pending seq;
            let now = Netio.wall () in
            let lat = now -. ts in
            if !completed < load.commands then begin
              latencies.(!completed) <- lat;
              samples.(!completed) <- (now, lat)
            end;
            incr completed;
            (match trace with
            | Some oc ->
                Printf.fprintf oc "{\"t\":%.6f,\"lat\":%.6f}\n" now lat
            | None -> ())
        | None -> ())
    | Wire.Hello _ | Wire.Peer _ | Wire.Request _ -> ()
  in
  while !completed < load.commands do
    (try
       top_up ();
       (* block for one frame, then drain every response already
          buffered before refilling: one request burst per response
          burst instead of one write syscall per response *)
       handle_frame (recv_frame t ~timeout);
       let draining = ref true in
       while !draining do
         match buffered_frame t with
         | Some msg -> handle_frame msg
         | None -> draining := false
       done
     with Disconnected reason ->
       log t "load interrupted (%s); failing over" reason;
       reconnect t;
       resubmit_outstanding ())
  done;
  let elapsed = Netio.wall () -. t0 in
  (match trace with Some oc -> close_out oc | None -> ());
  let n = Stdlib.min !completed load.commands in
  let lat = Array.sub latencies 0 n in
  Array.sort Float.compare lat;
  {
    sent = !sent;
    completed = !completed;
    resubmitted = !resubmitted;
    reconnects = reconnect_count t;
    backoff = t.backoff_total;
    elapsed;
    throughput =
      (if elapsed > 0. then float_of_int !completed /. elapsed else 0.);
    latencies = lat;
    samples = Array.sub samples 0 n;
  }
