type fault = Crash of float * int | Restart of float * int

type config = {
  n : int;
  delta : float;
  ts : float;
  duration : float;
  pre_loss : float;
  seed : int64;
  faults : fault list;
  record_trace : bool;
}

(* Long wall-clock runs must not accumulate unbounded trace memory, so
   the realtime executor always records into a bounded ring. *)
let trace_capacity = 65536

type result = {
  decisions : (float * int) option array;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  elapsed : float;
  agreement_violation : bool;
  trace : Sim.Trace.t;
  metrics : Sim.Registry.t;
}

(* Everything below runs inside closures on [loop], one at a time, so
   the run's state needs no locking. *)
type ('msg, 'state) shared = {
  cfg : config;
  loop : Netio.t;
  protocol : ('msg, 'state) Sim.Runtime.protocol;
  mutable ctxs : ('msg, 'state) Sim.Runtime.ctx array;
  states : 'state option array;  (* None: down *)
  incarnations : int array;  (* bumped by a crash: voids older timers *)
  storage : 'state option array;
  net_rng : Sim.Prng.t;
  decisions : (float * int) option array;
  mutable faults_left : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable violation : bool;
  trace : Sim.Trace.t;
  metrics : Sim.Registry.t;
  mutable next_msg_id : int;
  mutable finished : bool;
}

let now sh = Netio.now sh.loop

let finish sh =
  sh.finished <- true;
  Netio.stop sh.loop

(* The loop drains every due closure before it checks for a stop, so
   closures must turn into no-ops once the run is over: with a tiny
   [delta], due work never runs out. *)
let after sh delay fn =
  Netio.after sh.loop delay (fun () -> if not sh.finished then fn ())

(* The stop rule: every fault has fired and every process has decided. *)
let stop_if_done sh =
  if sh.faults_left = 0 && Array.for_all Option.is_some sh.decisions then
    finish sh

(* Network policy: the simulator's eventual synchrony, on wall time. *)
let delivery_delay sh ~src ~dst =
  let t = now sh in
  let c = sh.cfg in
  if t >= c.ts then
    if src = dst then Some (0.05 *. c.delta)
    else Some (Sim.Prng.float_range sh.net_rng (0.05 *. c.delta) c.delta)
  else if Sim.Prng.bool sh.net_rng c.pre_loss then None
  else Some (Sim.Prng.float_range sh.net_rng (0.05 *. c.delta) (4. *. c.delta))

let drop sh ~id ~src ~dst payload =
  sh.dropped <- sh.dropped + 1;
  Sim.Registry.inc sh.metrics ~proc:dst "msgs_dropped";
  Sim.Trace.record sh.trace (Sim.Trace.Drop { t = now sh; id; src; dst; payload })

let deliver sh ~id ~src ~dst payload msg =
  match sh.states.(dst) with
  | None -> drop sh ~id ~src ~dst payload
  | Some st ->
      sh.delivered <- sh.delivered + 1;
      Sim.Registry.inc sh.metrics ~proc:dst "msgs_delivered";
      Sim.Trace.record sh.trace
        (Sim.Trace.Deliver { t = now sh; id; src; dst; payload });
      sh.states.(dst) <-
        Some (sh.protocol.Sim.Runtime.on_message sh.ctxs.(dst) st ~src msg)

let fire_timer sh ~proc ~incarnation ~tag =
  match sh.states.(proc) with
  | Some st when incarnation = sh.incarnations.(proc) ->
      Sim.Trace.record sh.trace (Sim.Trace.Timer_fire { t = now sh; proc; tag });
      sh.states.(proc) <-
        Some (sh.protocol.Sim.Runtime.on_timer sh.ctxs.(proc) st ~tag)
  | Some _ | None -> ()

let apply_fault sh fault =
  (match fault with
  | Crash (_, p) ->
      sh.states.(p) <- None;
      sh.incarnations.(p) <- sh.incarnations.(p) + 1;
      Sim.Trace.record sh.trace (Sim.Trace.Crash { t = now sh; proc = p })
  | Restart (_, p) ->
      Sim.Trace.record sh.trace (Sim.Trace.Restart { t = now sh; proc = p });
      sh.states.(p) <-
        Some
          (sh.protocol.Sim.Runtime.on_restart sh.ctxs.(p)
             ~persisted:sh.storage.(p)));
  sh.faults_left <- sh.faults_left - 1;
  stop_if_done sh

let make_ctx sh ~proposals ~proc_rng p : _ Sim.Runtime.ctx =
  let send ~dst msg =
    sh.sent <- sh.sent + 1;
    Sim.Registry.inc sh.metrics ~proc:p "msgs_sent";
    let id = sh.next_msg_id in
    sh.next_msg_id <- id + 1;
    let payload =
      if Sim.Trace.enabled sh.trace then sh.protocol.Sim.Runtime.msg_payload msg
      else Sim.Trace.info ""
    in
    match delivery_delay sh ~src:p ~dst with
    | None -> drop sh ~id ~src:p ~dst payload
    | Some d ->
        Sim.Trace.record sh.trace
          (Sim.Trace.Send { t = now sh; id; src = p; dst; payload });
        after sh d (fun () -> deliver sh ~id ~src:p ~dst payload msg)
  in
  {
    Sim.Runtime.self = p;
    n = sh.cfg.n;
    proposal = proposals.(p);
    local_time = (fun () -> now sh);
    send;
    broadcast =
      (fun msg ->
        for dst = 0 to sh.cfg.n - 1 do
          send ~dst msg
        done);
    set_timer =
      (fun ~local_delay ~tag ->
        let t = now sh in
        Sim.Trace.record sh.trace
          (Sim.Trace.Timer_set { t; proc = p; tag; fire_at = t +. local_delay });
        let incarnation = sh.incarnations.(p) in
        after sh local_delay (fun () -> fire_timer sh ~proc:p ~incarnation ~tag));
    persist = (fun st -> sh.storage.(p) <- Some st);
    decide =
      (fun v ->
        if sh.decisions.(p) = None then begin
          let t = now sh in
          sh.decisions.(p) <- Some (t, v);
          Sim.Registry.inc sh.metrics ~proc:p "decisions";
          Sim.Registry.observe sh.metrics "decision_latency_delta"
            ((t -. sh.cfg.ts) /. sh.cfg.delta);
          Sim.Trace.record sh.trace (Sim.Trace.Decide { t; proc = p; value = v });
          if Array.exists (function Some (_, v') -> v' <> v | None -> false)
               sh.decisions
          then sh.violation <- true;
          stop_if_done sh
        end);
    has_decided = (fun () -> sh.decisions.(p) <> None);
    rng = proc_rng;
    scratch = Sim.Scratch.create ();
    note =
      (fun text ->
        Sim.Trace.record sh.trace (Sim.Trace.Note { t = now sh; proc = p; text }));
    count = (fun name -> Sim.Registry.inc sh.metrics ~proc:p name);
    oracle_time = (fun () -> now sh);
  }

let run cfg ~proposals protocol =
  if cfg.n <= 0 then invalid_arg "Netio_engine.run: n must be positive";
  if Array.length proposals <> cfg.n then
    invalid_arg "Netio_engine.run: proposals length differs from n";
  if cfg.delta <= 0. || cfg.duration <= 0. || cfg.ts < 0. then
    invalid_arg "Netio_engine.run: non-positive timing parameter";
  if cfg.pre_loss < 0. || cfg.pre_loss > 1. then
    invalid_arg "Netio_engine.run: pre_loss not in [0,1]";
  List.iter
    (fun f ->
      let t, p = match f with Crash (t, p) | Restart (t, p) -> (t, p) in
      if p < 0 || p >= cfg.n || t < 0. then
        invalid_arg "Netio_engine.run: bad fault spec")
    cfg.faults;
  let root = Sim.Prng.create cfg.seed in
  let sh =
    {
      cfg;
      loop = Netio.create ();
      protocol;
      ctxs = [||];
      states = Array.make cfg.n None;
      incarnations = Array.make cfg.n 0;
      storage = Array.make cfg.n None;
      net_rng = Sim.Prng.split root;
      decisions = Array.make cfg.n None;
      faults_left = List.length cfg.faults;
      sent = 0;
      delivered = 0;
      dropped = 0;
      violation = false;
      trace =
        Sim.Trace.create ~capacity:trace_capacity ~enabled:cfg.record_trace ();
      metrics = Sim.Registry.create ();
      next_msg_id = 0;
      finished = false;
    }
  in
  Sim.Registry.inc sh.metrics "runs";
  let proc_rngs = Array.init cfg.n (fun _ -> Sim.Prng.split root) in
  sh.ctxs <-
    Array.init cfg.n (fun p -> make_ctx sh ~proposals ~proc_rng:proc_rngs.(p) p);
  (* Boots are queued first, so they run before any fault or message. *)
  Array.iteri
    (fun p ctx ->
      after sh 0. (fun () ->
          sh.states.(p) <- Some (protocol.Sim.Runtime.on_boot ctx)))
    sh.ctxs;
  List.iter
    (fun f ->
      let t = match f with Crash (t, _) | Restart (t, _) -> t in
      after sh t (fun () -> apply_fault sh f))
    cfg.faults;
  after sh cfg.duration (fun () -> finish sh);
  Fun.protect
    ~finally:(fun () -> Netio.shutdown sh.loop)
    (fun () -> Netio.run sh.loop);
  {
    decisions = Array.copy sh.decisions;
    messages_sent = sh.sent;
    messages_delivered = sh.delivered;
    messages_dropped = sh.dropped;
    elapsed = now sh;
    agreement_violation = sh.violation;
    trace = sh.trace;
    metrics = sh.metrics;
  }
