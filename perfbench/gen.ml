(* Open-loop load generator for the socket cluster.

   One thread, at most a handful of non-blocking connections, Wire
   frames both ways.  Requests go out on a seeded Poisson schedule fixed
   before the run starts; each one is timed from its *intended* send
   time, so a stalled generator or cluster cannot hide its own delay
   (the coordinated-omission correction).  How late the generator
   itself sent each request is recorded as well, so a run whose
   generator fell behind can be told apart from a slow cluster.

   On a dead connection the generator reconnects to the next reachable
   member and resends every request still outstanding on it.  Replicas
   stamp a fresh id on every submission, so a resent command may execute
   twice; the failover workload therefore uses idempotent unique puts. *)

module Wire = Smr.Wire
module Command = Smr.Command

type mix =
  | Mixed  (** 70% put / 20% get / 10% cas over [keyspace] keys *)
  | Unique_puts  (** request [i] is [put u<i> (value_for i)] *)
  | Readback  (** request [i] is [get u<i>], checked against [value_for] *)

let mix_of_string = function
  | "mixed" -> Mixed
  | "unique" -> Unique_puts
  | "readback" -> Readback
  | s -> invalid_arg ("unknown mix " ^ s)

type plan = {
  cluster : (string * int) array;
  members : int array;  (** initial member of each connection *)
  rate : float;  (** offered requests per second *)
  seconds : float;  (** length of the arrival schedule *)
  count : int;  (** > 0: [count] requests all due at once, no schedule *)
  mix : mix;
  value_bytes : int;
  seed : int;
  window : int;  (** max outstanding requests; 0 = unlimited (open loop) *)
  drain : float;  (** seconds to wait for replies after the last arrival *)
}

(* ---- the seeded inputs ---------------------------------------------- *)

(* keys k0 .. k999 of the mixed stream *)
let keyspace = 1000

(* Offsets (seconds from the start) of a Poisson arrival process. *)
let arrivals ~seed ~rate ~seconds =
  let rng = Sim.Prng.create (Int64.of_int ((seed * 7919) + 1)) in
  let acc = ref [] in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    let u = Sim.Prng.float rng 1. in
    t := !t -. (log (1. -. u) /. rate);
    if !t < seconds then acc := !t :: !acc else continue := false
  done;
  Array.of_list (List.rev !acc)

(* The value unique put [i] stores: the index, then seeded filler. *)
let value_for ~seed ~value_bytes i =
  let head = string_of_int i ^ ":" in
  String.init value_bytes (fun j ->
      if j < String.length head then head.[j]
      else Char.chr (97 + (((i * 31) + (j * 7) + seed) land 15)))

type kind = Put | Get | Cas

let op_stream plan =
  let rng = Sim.Prng.create (Int64.of_int ((plan.seed * 104729) + 2)) in
  fun i ->
    match plan.mix with
    | Unique_puts ->
        ( Put,
          Command.Kv_put
            {
              key = "u" ^ string_of_int i;
              value = value_for ~seed:plan.seed ~value_bytes:plan.value_bytes i;
            } )
    | Readback -> (Get, Command.Kv_get ("u" ^ string_of_int i))
    | Mixed ->
        let key = "k" ^ string_of_int (Sim.Prng.int rng keyspace) in
        let roll = Sim.Prng.int rng 10 in
        let value () =
          let v = Sim.Prng.next_int64 rng in
          let s = Printf.sprintf "%016Lx" v in
          if plan.value_bytes <= 16 then String.sub s 0 plan.value_bytes
          else s ^ String.make (plan.value_bytes - 16) 'v'
        in
        if roll < 7 then (Put, Command.Kv_put { key; value = value () })
        else if roll < 9 then (Get, Command.Kv_get key)
        else
          let expect = Some (value ()) in
          (Cas, Command.Kv_cas { key; expect; set = value () })

(* Digest of a plan's schedule and op stream: equal seeds give equal
   digests (the benchmark's determinism self-test). *)
let schedule plan =
  if plan.count > 0 then Array.make plan.count 0.
  else arrivals ~seed:plan.seed ~rate:plan.rate ~seconds:plan.seconds

let schedule_digest plan =
  let sched = schedule plan in
  let ops = op_stream plan in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i t ->
      Buffer.add_string buf (Printf.sprintf "%.9f " t);
      Buffer.add_string buf (Command.info (Command.make ~id:0 (snd (ops i))));
      Buffer.add_char buf '\n')
    sched;
  (Array.length sched, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---- connections ----------------------------------------------------- *)

type bytes_queue = { mutable qbuf : Bytes.t; mutable qoff : int; mutable qlen : int }

let queue_create n = { qbuf = Bytes.create n; qoff = 0; qlen = 0 }

let queue_append q b =
  let n = Bytes.length b in
  if q.qoff + q.qlen + n > Bytes.length q.qbuf then begin
    let cap = ref (Bytes.length q.qbuf) in
    while q.qlen + n > !cap do
      cap := !cap * 2
    done;
    let nb = if !cap = Bytes.length q.qbuf then q.qbuf else Bytes.create !cap in
    Bytes.blit q.qbuf q.qoff nb 0 q.qlen;
    q.qbuf <- nb;
    q.qoff <- 0
  end;
  Bytes.blit b 0 q.qbuf (q.qoff + q.qlen) n;
  q.qlen <- q.qlen + n

let queue_consume q n =
  q.qoff <- q.qoff + n;
  q.qlen <- q.qlen - n;
  if q.qlen = 0 then q.qoff <- 0

type conn = {
  mutable fd : Unix.file_descr option;
  mutable member : int;
  out : bytes_queue;
  inq : bytes_queue;
  pending : (int, Bytes.t) Hashtbl.t;  (* seq -> frame, outstanding here *)
  mutable retry_at : float;
}

type result = {
  intended : float array;
  sent : float array;
  completed : float array;  (* nan when never answered *)
  status : int array;  (* 0 unanswered, 1 ok, 2 wrong reply, 3 error reply *)
  resends : int;
  reconnects : int;
  duplicates : int;
  t0 : float;
}

let connect_member cluster i =
  let host, port = cluster.(i) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Realtime.Netio.resolve host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.set_nonblock fd
  with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let hello = Wire.to_bytes (Wire.Hello { sender = -1 })

let run plan =
  let now = Unix.gettimeofday in
  let sched = schedule plan in
  let n = Array.length sched in
  let ops = op_stream plan in
  let kinds = Array.make n Put in
  let expected = Array.make n "" in
  let sent = Array.make n Float.nan in
  let completed = Array.make n Float.nan in
  let status = Array.make n 0 in
  let resends = ref 0 and reconnects = ref 0 and duplicates = ref 0 in
  let conns =
    Array.map
      (fun m ->
        {
          fd = None;
          member = m;
          out = queue_create 65536;
          inq = queue_create 65536;
          pending = Hashtbl.create 1024;
          retry_at = 0.;
        })
      plan.members
  in
  let nmembers = Array.length plan.cluster in
  let fail c =
    (match c.fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    c.fd <- None;
    c.out.qoff <- 0;
    c.out.qlen <- 0;
    c.inq.qoff <- 0;
    c.inq.qlen <- 0;
    incr reconnects;
    c.retry_at <- 0.
  in
  let flush c =
    match c.fd with
    | None -> ()
    | Some fd -> (
        match Unix.single_write fd c.out.qbuf c.out.qoff c.out.qlen with
        | k -> queue_consume c.out k
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> fail c)
  in
  (* (re)connect: the first attempt targets [c.member]; after a failure
     the next members are probed round-robin *)
  let attach c ~first_try =
    let rec go k =
      if k >= nmembers then false
      else
        let m = (c.member + (if first_try then 0 else 1) + k) mod nmembers in
        match connect_member plan.cluster m with
        | Some fd ->
            c.fd <- Some fd;
            c.member <- m;
            queue_append c.out hello;
            (* lint-free order: resend in sequence order *)
            let seqs =
              Hashtbl.fold (fun s _ acc -> s :: acc) c.pending []
              |> List.sort Int.compare
            in
            List.iter
              (fun s ->
                incr resends;
                queue_append c.out (Hashtbl.find c.pending s))
              seqs;
            flush c;
            true
        | None -> go (k + 1)
    in
    go 0
  in
  Array.iter
    (fun c ->
      if not (attach c ~first_try:true) then failwith "no cluster member reachable")
    conns;
  (* drop the Hello-only handshake cost from the measurement *)
  let t0 = now () +. 0.02 in
  let intended = Array.map (fun off -> t0 +. off) sched in
  let last_due = if n = 0 then t0 else intended.(n - 1) in
  let outstanding = ref 0 in
  let next = ref 0 in
  let rr = ref 0 in
  let on_reply c seq reply =
    match Hashtbl.find_opt c.pending seq with
    | None -> incr duplicates
    | Some _ ->
        Hashtbl.remove c.pending seq;
        decr outstanding;
        if Float.is_nan completed.(seq) then begin
          completed.(seq) <- now ();
          status.(seq) <-
            (match (kinds.(seq), reply) with
            | _, Wire.R_error _ -> 3
            | Put, Wire.R_stored -> 1
            | Get, Wire.R_value v ->
                if expected.(seq) = "" then 1
                else if v = Some expected.(seq) then 1
                else 2
            | Cas, Wire.R_cas _ -> 1
            | (Put | Get | Cas), _ -> 2)
        end
        else incr duplicates
  in
  let read c fd =
    let q = c.inq in
    if q.qoff > 0 then begin
      Bytes.blit q.qbuf q.qoff q.qbuf 0 q.qlen;
      q.qoff <- 0
    end;
    if Bytes.length q.qbuf - q.qlen < 65536 then begin
      let nb = Bytes.create (2 * Bytes.length q.qbuf) in
      Bytes.blit q.qbuf 0 nb 0 q.qlen;
      q.qbuf <- nb
    end;
    match Unix.read fd q.qbuf q.qlen (Bytes.length q.qbuf - q.qlen) with
    | 0 -> fail c
    | k ->
        q.qlen <- q.qlen + k;
        let rec decode () =
          match Wire.decode q.qbuf ~pos:q.qoff ~avail:q.qlen with
          | Ok (Wire.Response { seq; reply }, used) ->
              queue_consume q used;
              on_reply c seq reply;
              decode ()
          | Ok ((Wire.Hello _ | Wire.Peer _ | Wire.Request _), used) ->
              queue_consume q used;
              decode ()
          | Error `Need_more -> ()
          | Error (`Error _) -> fail c
        in
        decode ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> fail c
  in
  let live () = Array.exists (fun c -> c.fd <> None) conns in
  let finished = ref false in
  while not !finished do
    let t = now () in
    (* reconnect dead links, then send everything that is due *)
    Array.iter
      (fun c ->
        if c.fd = None && t >= c.retry_at then
          if not (attach c ~first_try:false) then c.retry_at <- t +. 0.02)
      conns;
    if live () then
      while
        !next < n
        && intended.(!next) <= t
        && (plan.window = 0 || !outstanding < plan.window)
      do
        let i = !next in
        let kind, op = ops i in
        kinds.(i) <- kind;
        (match plan.mix with
        | Readback ->
            expected.(i) <- value_for ~seed:plan.seed ~value_bytes:plan.value_bytes i
        | Mixed | Unique_puts -> ());
        let frame = Wire.to_bytes (Wire.Request { seq = i; cmd = Command.make ~id:0 op }) in
        let rec pick k =
          let c = conns.((!rr + k) mod Array.length conns) in
          if c.fd <> None then c else pick (k + 1)
        in
        let c = pick 0 in
        rr := !rr + 1;
        Hashtbl.replace c.pending i frame;
        queue_append c.out frame;
        sent.(i) <- t;
        incr outstanding;
        incr next
      done;
    Array.iter (fun c -> if c.out.qlen > 0 then flush c) conns;
    if !next >= n && (!outstanding = 0 || t > last_due +. plan.drain) then
      finished := true
    else begin
      let timeout =
        if !next < n && (plan.window = 0 || !outstanding < plan.window) then
          Float.min 0.01 (Float.max 0. (intended.(!next) -. t))
        else 0.01
      in
      let rds = Array.to_list conns |> List.filter_map (fun c -> c.fd) in
      let wrs =
        Array.to_list conns
        |> List.filter_map (fun c -> if c.out.qlen > 0 then c.fd else None)
      in
      match Unix.select rds wrs [] timeout with
      | readable, _, _ ->
          Array.iter
            (fun c ->
              match c.fd with
              | Some fd when List.mem fd readable -> read c fd
              | Some _ | None -> ())
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.iter
    (fun c ->
      match c.fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    conns;
  {
    intended;
    sent;
    completed;
    status;
    resends = !resends;
    reconnects = !reconnects;
    duplicates = !duplicates;
    t0;
  }

(* Records of four little-endian doubles: intended, sent, completed,
   status — the format run.py reads back. *)
let write_records path r =
  let n = Array.length r.intended in
  let b = Bytes.create (32 * n) in
  let put off x = Bytes.set_int64_le b off (Int64.bits_of_float x) in
  for i = 0 to n - 1 do
    put (32 * i) r.intended.(i);
    put ((32 * i) + 8) r.sent.(i);
    put ((32 * i) + 16) r.completed.(i);
    put ((32 * i) + 24) (float_of_int r.status.(i))
  done;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

(* Block until one put through [member] commits; the wall time of the
   reply.  Connection refusals are retried every 5 ms until [timeout]
   (the replicas may still be starting). *)
let probe ~cluster ~member ~key ~value ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let frame =
    Wire.to_bytes
      (Wire.Request { seq = 0; cmd = Command.make ~id:0 (Command.Kv_put { key; value }) })
  in
  let rec attempt () =
    if Unix.gettimeofday () > deadline then None
    else
      match connect_member cluster member with
      | None ->
          Unix.sleepf 0.005;
          attempt ()
      | Some fd -> (
          Unix.clear_nonblock fd;
          let inq = queue_create 4096 in
          let rec await () =
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0. then None
            else
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> None
              | _ :: _, _, _ -> (
                  match
                    Unix.read fd inq.qbuf inq.qlen (Bytes.length inq.qbuf - inq.qlen)
                  with
                  | 0 -> None
                  | k -> (
                      inq.qlen <- inq.qlen + k;
                      match Wire.decode inq.qbuf ~pos:0 ~avail:inq.qlen with
                      | Ok (Wire.Response { reply = Wire.R_stored; _ }, _) ->
                          Some (Unix.gettimeofday ())
                      | Ok _ | Error (`Error _) -> None
                      | Error `Need_more -> await ())
                  | exception Unix.Unix_error _ -> None)
          in
          let sent =
            match
              ignore (Unix.write fd hello 0 (Bytes.length hello) : int);
              ignore (Unix.write fd frame 0 (Bytes.length frame) : int)
            with
            | () -> true
            | exception Unix.Unix_error _ -> false
          in
          let r = if sent then await () else None in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          match r with
          | Some t -> Some t
          | None ->
              Unix.sleepf 0.005;
              attempt ())
  in
  attempt ()
