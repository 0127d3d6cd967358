(* Frame-aware chaos proxy: one front listener per replica, each
   accepted connection paired with a backend connection to the real
   replica.  Frames are decoded only to find boundaries and learn
   endpoint identity (the Hello that opens every WIRE.md connection);
   the original bytes are forwarded untouched unless the schedule says
   otherwise, so with an empty schedule the proxy is byte-transparent.

   Determinism: every per-direction random draw comes from a Sim.Prng
   substream keyed by (schedule seed, src, dst), so accept order does
   not perturb which frames a given link corrupts or delays.  The
   schedule itself is deterministic data; the interleaving of a live
   cluster of course is not. *)

module Netio = Realtime.Netio

type dir = {
  mutable rng : Sim.Prng.t;
  mutable last_release : float;  (* loop time; enforces per-dir FIFO *)
  mutable held : Bytes.t option;  (* reorder hold-back *)
}

type link = {
  replica : int;  (* which front this connection arrived on *)
  front : Netio.conn;
  back : Netio.conn;
  mutable ident : int;  (* -3 until Hello; -1 client; >=0 peer replica *)
  fwd : dir;  (* ident -> replica *)
  rev : dir;  (* replica -> ident *)
  mutable dead : bool;
}

type t = {
  io : Netio.t;
  sched : Schedule.t;
  reg : Sim.Registry.t;
  host : string;
  front_ports : int array;
  mutable backends : (string * int) array;
  mutable t0 : float;
  mutable started : bool;
  mutable links : link list;
}

let count ?(by = 1) t name = Sim.Registry.inc ~by t.reg name

let fronts t = Array.map (fun p -> (t.host, p)) t.front_ports

let set_backends t backends =
  if Array.length backends <> t.sched.Schedule.n then
    invalid_arg "Proxy.set_backends: wrong length";
  t.backends <- Array.copy backends

(* relative campaign time; negative before the clock starts, which no
   schedule window covers *)
let rel t = if t.started then Netio.now t.io -. t.t0 else -1.

let in_window ~from_ ~until r = r >= from_ && r < until

(* ---- schedule queries -------------------------------------------- *)

let group_of groups e =
  let rec go i = function
    | [] -> -1
    | g :: rest -> if List.mem e g then i else go (i + 1) rest
  in
  go 0 groups

let drop_active sched r ~src ~dst =
  List.exists
    (fun a ->
      match a with
      | Schedule.Cut c ->
          c.src = src && c.dst = dst && in_window ~from_:c.from_ ~until:c.until r
      | Schedule.Partition p ->
          in_window ~from_:p.from_ ~until:p.until r
          &&
          let gs = group_of p.groups src and gd = group_of p.groups dst in
          gs >= 0 && gd >= 0 && gs <> gd
      | Schedule.Delay _ | Schedule.Duplicate _ | Schedule.Reorder _
      | Schedule.Corrupt _ | Schedule.Truncate _ | Schedule.Reset _
      | Schedule.Stall _ ->
          false)
    sched.Schedule.actions

(* first matching probabilistic action of the wanted kind; one rng draw
   iff a window is active *)
let roll sched r ~src ~dst rng kind =
  let probe a =
    match (kind, a) with
    | `Duplicate, Schedule.Duplicate c
      when c.src = src && c.dst = dst
           && in_window ~from_:c.from_ ~until:c.until r ->
        Some c.prob
    | `Reorder, Schedule.Reorder c
      when c.src = src && c.dst = dst
           && in_window ~from_:c.from_ ~until:c.until r ->
        Some c.prob
    | `Corrupt, Schedule.Corrupt c
      when c.src = src && c.dst = dst
           && in_window ~from_:c.from_ ~until:c.until r ->
        Some c.prob
    | `Truncate, Schedule.Truncate c
      when c.src = src && c.dst = dst
           && in_window ~from_:c.from_ ~until:c.until r ->
        Some c.prob
    | _ -> None
  in
  match List.find_map probe sched.Schedule.actions with
  | Some prob -> Sim.Prng.float rng 1. < prob
  | None -> false

(* seconds of added latency for a frame arriving at relative time r *)
let added_latency sched r ~src ~dst rng =
  let stall =
    List.fold_left
      (fun acc a ->
        match a with
        | Schedule.Stall c
          when c.src = src && c.dst = dst
               && in_window ~from_:c.from_ ~until:c.until r ->
            (* hold until the window closes; FIFO keeps order *)
            Float.max acc (c.until -. r)
        | _ -> acc)
      0. sched.Schedule.actions
  in
  let delay =
    List.fold_left
      (fun acc a ->
        match a with
        | Schedule.Delay c when in_window ~from_:c.from_ ~until:c.until r ->
            Float.max acc (Sim.Prng.float rng c.max_delay)
        | _ -> acc)
      0. sched.Schedule.actions
  in
  stall +. delay

(* ---- link plumbing ----------------------------------------------- *)

let kill t link =
  if not link.dead then begin
    link.dead <- true;
    t.links <-
      List.filter
        (fun l -> Netio.conn_id l.front <> Netio.conn_id link.front)
        t.links;
    Netio.close t.io link.front;
    Netio.close t.io link.back
  end

(* send [bytes] on [out] no earlier than the direction's last release
   (per-direction FIFO), [extra] seconds from now *)
let emit t dir out ~extra bytes =
  let now = Netio.now t.io in
  let release = Float.max dir.last_release (now +. extra) in
  dir.last_release <- release;
  if release <= now then Netio.send t.io out bytes
  else begin
    count t "chaos_delayed";
    Netio.after t.io (release -. now) (fun () ->
        if not (Netio.closing out) then Netio.send t.io out bytes)
  end

(* flip one payload byte (or a CRC byte when the payload is empty): the
   receiver's CRC check fails and the connection is torn down cleanly *)
let corrupt_copy rng bytes =
  let b = Bytes.copy bytes in
  let len = Bytes.length b in
  let payload = len - Smr.Wire.header_len in
  let i =
    if payload > 0 then Smr.Wire.header_len + Sim.Prng.int rng payload else 8
  in
  if i < len then Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  b

let dir_key ~src ~dst = (((src + 2) * 67) + dst + 2) * 1_000_003

let dir_rng sched ~src ~dst =
  Sim.Prng.create
    (Int64.add sched.Schedule.seed (Int64.of_int (dir_key ~src ~dst)))

let learn_ident t link sender =
  link.ident <- sender;
  link.fwd.rng <- dir_rng t.sched ~src:sender ~dst:link.replica;
  link.rev.rng <- dir_rng t.sched ~src:link.replica ~dst:sender

let process t link kind bytes =
  let dir, out, src, dst =
    match kind with
    | `Fwd -> (link.fwd, link.back, link.ident, link.replica)
    | `Rev -> (link.rev, link.front, link.replica, link.ident)
  in
  let r = rel t in
  count t "chaos_frames";
  if drop_active t.sched r ~src ~dst then count t "chaos_dropped"
  else begin
    let corrupted = roll t.sched r ~src ~dst dir.rng `Corrupt in
    let bytes = if corrupted then corrupt_copy dir.rng bytes else bytes in
    if corrupted then count t "chaos_corrupted";
    if roll t.sched r ~src ~dst dir.rng `Truncate then begin
      count t "chaos_truncated";
      emit t dir out ~extra:0.
        (Bytes.sub bytes 0 (Stdlib.max 1 (Bytes.length bytes / 2)));
      (* sever shortly after, giving the prefix a loop turn to flush *)
      Netio.after t.io 0.02 (fun () -> kill t link)
    end
    else begin
      let extra = added_latency t.sched r ~src ~dst dir.rng in
      let dup = roll t.sched r ~src ~dst dir.rng `Duplicate in
      let swap = roll t.sched r ~src ~dst dir.rng `Reorder in
      match dir.held with
      | Some earlier ->
          (* release the held frame after its successor: the swap *)
          dir.held <- None;
          emit t dir out ~extra bytes;
          emit t dir out ~extra earlier
      | None ->
          if swap && not dup then begin
            count t "chaos_reordered";
            dir.held <- Some bytes;
            (* safety valve: a held frame with no successor still goes
               out, just late *)
            Netio.after t.io 0.05 (fun () ->
                match dir.held with
                | Some b when not link.dead ->
                    dir.held <- None;
                    emit t dir out ~extra:0. b
                | Some _ | None -> ())
          end
          else begin
            emit t dir out ~extra bytes;
            if dup then begin
              count t "chaos_duplicated";
              emit t dir out ~extra bytes
            end
          end
    end
  end

(* Decode every buffered frame on [conn], forwarding the original byte
   slices.  A decode error here means an endpoint (not us — we only
   mutate output copies) broke the protocol: sever the pair. *)
let pump t link kind conn =
  let rec go () =
    if not (Netio.closing conn) && not link.dead then begin
      let buf, pos, avail = Netio.input conn in
      match Smr.Wire.decode buf ~pos ~avail with
      | Ok (msg, used) ->
          let bytes = Bytes.sub buf pos used in
          Netio.consume conn used;
          (match (kind, msg) with
          | `Fwd, Smr.Wire.Hello { sender }
            when link.ident = -3
                 && sender >= -1
                 && sender < t.sched.Schedule.n ->
              learn_ident t link sender
          | _ -> ());
          process t link kind bytes;
          go ()
      | Error `Need_more -> ()
      | Error (`Error _) ->
          count t "chaos_bad_frames";
          kill t link
    end
  in
  go ()

let on_front_accept t replica front =
  match t.backends.(replica) with
  | exception Invalid_argument _ -> Netio.close t.io front
  | host, port ->
      if port <= 0 then Netio.close t.io front
      else begin
        count t "chaos_conns";
        let back = Netio.connect t.io ~host ~port in
        let link =
          {
            replica;
            front;
            back;
            ident = -3;
            fwd =
              {
                rng = dir_rng t.sched ~src:(-3) ~dst:replica;
                last_release = 0.;
                held = None;
              };
            rev =
              {
                rng = dir_rng t.sched ~src:replica ~dst:(-3);
                last_release = 0.;
                held = None;
              };
            dead = false;
          }
        in
        t.links <- link :: t.links;
        Netio.set_callbacks front
          ~on_data:(fun c -> pump t link `Fwd c)
          ~on_close:(fun _ -> kill t link);
        Netio.set_callbacks back
          ~on_data:(fun c -> pump t link `Rev c)
          ~on_close:(fun _ -> kill t link)
      end

let create ?(host = "127.0.0.1") ?ports ~schedule ~registry () =
  (match Schedule.validate schedule with
  | Ok () -> ()
  | Error m -> invalid_arg ("Proxy.create: " ^ m));
  let n = schedule.Schedule.n in
  let ports =
    match ports with
    | Some p when Array.length p = n -> p
    | Some _ -> invalid_arg "Proxy.create: ports length <> n"
    | None -> Array.make n 0
  in
  let io = Netio.create () in
  Netio.set_registry io registry;
  let t =
    {
      io;
      sched = schedule;
      reg = registry;
      host;
      front_ports = Array.make n 0;
      backends = Array.make n ("", 0);
      t0 = 0.;
      started = false;
      links = [];
    }
  in
  for i = 0 to n - 1 do
    t.front_ports.(i) <-
      Netio.listen io ~host ~port:ports.(i) ~on_accept:(fun conn ->
          on_front_accept t i conn)
  done;
  t

(* Pin the campaign clock and arm the scheduled resets.  Must be called
   before the loop thread starts (timer state is not thread-safe). *)
let start_clock t =
  t.t0 <- Netio.now t.io;
  t.started <- true;
  List.iter
    (fun a ->
      match a with
      | Schedule.Reset { dst; at } ->
          Netio.after t.io at (fun () ->
              count t "chaos_resets";
              List.iter
                (fun l -> if l.replica = dst then kill t l)
                t.links)
      | Schedule.Cut _ | Schedule.Partition _ | Schedule.Delay _
      | Schedule.Duplicate _ | Schedule.Reorder _ | Schedule.Corrupt _
      | Schedule.Truncate _ | Schedule.Stall _ ->
          ())
    t.sched.Schedule.actions

let run t = Netio.run t.io

let stop t = Netio.stop t.io

let shutdown t = Netio.shutdown t.io

let registry t = t.reg
