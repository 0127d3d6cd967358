(* Everything below runs inside closures on [loop], one at a time, so
   the run's state needs no locking. *)
type ('msg, 'state) shared = {
  sc : Sim.Scenario.t;
  loop : Netio.t;
  protocol : ('msg, 'state) Sim.Runtime.protocol;
  mutable ctxs : ('msg, 'state) Sim.Runtime.ctx array;
  states : 'state option array;  (* None: down *)
  incarnations : int array;  (* bumped by a crash: voids older timers *)
  storage : 'state Sim.Stable_storage.t;
  net_rng : Sim.Prng.t;
  net_env : Sim.Network.env;
  net_delays : Sim.Network.delays;
  decision_times : float option array;
  decision_values : int option array;
  mutable faults_left : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable closures_run : int;
  mutable violation : (int * int * int * int) option;
  trace : Sim.Trace.t;
  metrics : Sim.Registry.t;
  mutable next_msg_id : int;
  mutable finished : bool;
}

let now sh = Netio.now sh.loop

let finish sh =
  sh.finished <- true;
  Netio.stop sh.loop

(* The simulator's stop rule: early stop is on, no fault is pending, and
   some process is up and every up process has decided. *)
let should_stop sh =
  let n = Array.length sh.states in
  let rec up_decided p =
    p = n
    || (Option.is_none sh.states.(p) || Option.is_some sh.decision_values.(p))
       && up_decided (p + 1)
  in
  sh.sc.Sim.Scenario.stop_on_all_decided
  && sh.faults_left = 0
  && Array.exists Option.is_some sh.states
  && up_decided 0

(* The loop drains every due closure before it checks for a stop, so
   closures must turn into no-ops once the run is over: with a tiny
   [delta], due work never runs out.  The stop rule is checked after
   each closure, as the simulator checks it between events. *)
let after sh delay fn =
  Netio.after sh.loop delay (fun () ->
      if not sh.finished then begin
        sh.closures_run <- sh.closures_run + 1;
        fn ();
        if should_stop sh then finish sh
      end)

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

(* Every message's fate comes from the scenario's network policy: no
   copy is a drop, otherwise one delivery per copy. *)
let send sh p ~dst msg =
  sh.sent <- sh.sent + 1;
  Sim.Registry.inc sh.metrics ~proc:p "msgs_sent";
  let id = sh.next_msg_id in
  sh.next_msg_id <- id + 1;
  let payload =
    if Sim.Trace.enabled sh.trace then sh.protocol.Sim.Runtime.msg_payload msg
    else Sim.Trace.info ""
  in
  sh.net_env.Sim.Network.now <- now sh;
  let copies =
    sh.sc.Sim.Scenario.network.Sim.Network.decide_into sh.net_rng sh.net_env
      sh.net_delays ~src:p ~dst
  in
  if copies = 0 then drop sh ~id ~src:p ~dst payload
  else begin
    Sim.Trace.record sh.trace
      (Sim.Trace.Send { t = now sh; id; src = p; dst; payload });
    for i = 0 to copies - 1 do
      after sh (Sim.Network.delay sh.net_delays i) (fun () ->
          deliver sh ~id ~src:p ~dst payload msg)
    done
  end

let fire_timer sh ~proc ~incarnation ~tag =
  match sh.states.(proc) with
  | Some st when incarnation = sh.incarnations.(proc) ->
      Sim.Trace.record sh.trace (Sim.Trace.Timer_fire { t = now sh; proc; tag });
      sh.states.(proc) <-
        Some (sh.protocol.Sim.Runtime.on_timer sh.ctxs.(proc) st ~tag)
  | Some _ | None -> ()

let apply_fault sh { Sim.Fault.proc; action; _ } =
  sh.faults_left <- sh.faults_left - 1;
  match action with
  | Sim.Fault.Crash ->
      sh.states.(proc) <- None;
      sh.incarnations.(proc) <- sh.incarnations.(proc) + 1;
      Sim.Trace.record sh.trace (Sim.Trace.Crash { t = now sh; proc })
  | Sim.Fault.Restart ->
      Sim.Trace.record sh.trace (Sim.Trace.Restart { t = now sh; proc });
      sh.states.(proc) <-
        Some
          (sh.protocol.Sim.Runtime.on_restart sh.ctxs.(proc)
             ~persisted:(Sim.Stable_storage.load sh.storage ~proc))

let decide sh p v =
  if Option.is_none sh.decision_values.(p) then begin
    let t = now sh in
    sh.decision_values.(p) <- Some v;
    sh.decision_times.(p) <- Some t;
    Sim.Registry.inc sh.metrics ~proc:p "decisions";
    Sim.Registry.observe sh.metrics "decision_latency_delta"
      ((t -. sh.sc.Sim.Scenario.ts) /. sh.sc.Sim.Scenario.delta);
    Sim.Trace.record sh.trace (Sim.Trace.Decide { t; proc = p; value = v });
    if Option.is_none sh.violation then
      Array.iteri
        (fun q vq ->
          match vq with
          | Some vq when vq <> v && Option.is_none sh.violation ->
              sh.violation <- Some (p, v, q, vq)
          | Some _ | None -> ())
        sh.decision_values
  end

let make_ctx sh ~proc_rng p : _ Sim.Runtime.ctx =
  let n = sh.sc.Sim.Scenario.n in
  {
    Sim.Runtime.self = p;
    n;
    proposal = sh.sc.Sim.Scenario.proposals.(p);
    local_time = (fun () -> now sh);
    send = (fun ~dst msg -> send sh p ~dst msg);
    broadcast =
      (fun msg ->
        for dst = 0 to n - 1 do
          send sh p ~dst msg
        done);
    set_timer =
      (fun ~local_delay ~tag ->
        let t = now sh in
        Sim.Trace.record sh.trace
          (Sim.Trace.Timer_set { t; proc = p; tag; fire_at = t +. local_delay });
        let incarnation = sh.incarnations.(p) in
        after sh local_delay (fun () -> fire_timer sh ~proc:p ~incarnation ~tag));
    persist = (fun st -> Sim.Stable_storage.save sh.storage ~proc:p st);
    decide = (fun v -> decide sh p v);
    has_decided = (fun () -> Option.is_some sh.decision_values.(p));
    rng = proc_rng;
    scratch = Sim.Scratch.create ();
    note =
      (fun text ->
        Sim.Trace.record sh.trace (Sim.Trace.Note { t = now sh; proc = p; text }));
    count = (fun name -> Sim.Registry.inc sh.metrics ~proc:p name);
    oracle_time = (fun () -> now sh);
  }

let run (sc : Sim.Scenario.t) protocol =
  (match Sim.Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Netio_engine.run: invalid scenario: " ^ msg));
  (* The wall clock is the only clock here: a drift the scenario asks
     for could not be honoured, so refuse it rather than ignore it. *)
  if not (Float.equal sc.rho 0.) then
    invalid_arg "Netio_engine.run: rho must be 0 (no drifting clocks)";
  let n = sc.n in
  let root = Sim.Prng.create sc.seed in
  let sh =
    {
      sc;
      loop = Netio.create ();
      protocol;
      ctxs = [||];
      states = Array.make n None;
      incarnations = Array.make n 0;
      storage = Sim.Stable_storage.create ~n;
      net_rng = Sim.Prng.split root;
      net_env = Sim.Network.make_env ~now:0. ~ts:sc.ts ~delta:sc.delta;
      net_delays = Sim.Network.make_delays ();
      decision_times = Array.make n None;
      decision_values = Array.make n None;
      faults_left = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      closures_run = 0;
      violation = None;
      trace =
        Sim.Trace.create ~capacity:sc.trace_capacity ~enabled:sc.record_trace
          ();
      metrics = Sim.Registry.create ();
      next_msg_id = 0;
      finished = false;
    }
  in
  Sim.Registry.inc sh.metrics "runs";
  let proc_rngs = Array.init n (fun _ -> Sim.Prng.split root) in
  sh.ctxs <- Array.init n (fun p -> make_ctx sh ~proc_rng:proc_rngs.(p) p);
  (* One closure boots every initially-up process, queued first so it
     runs before any fault or message and the stop rule sees them all. *)
  after sh 0. (fun () ->
      Array.iteri
        (fun p ctx ->
          if not (List.mem p sc.faults.Sim.Fault.initially_down) then
            sh.states.(p) <- Some (protocol.Sim.Runtime.on_boot ctx))
        sh.ctxs);
  List.iter
    (fun (ev : Sim.Fault.event) ->
      sh.faults_left <- sh.faults_left + 1;
      after sh ev.at (fun () -> apply_fault sh ev))
    (Sim.Fault.sorted_events sc.faults);
  Netio.after sh.loop sc.horizon (fun () -> finish sh);
  Fun.protect
    ~finally:(fun () -> Netio.shutdown sh.loop)
    (fun () -> Netio.run sh.loop);
  {
    Sim.Engine.scenario = sc;
    protocol_name = protocol.Sim.Runtime.name;
    decision_times = Array.copy sh.decision_times;
    decision_values = Array.copy sh.decision_values;
    messages_sent = sh.sent;
    messages_delivered = sh.delivered;
    messages_dropped = sh.dropped;
    end_time = now sh;
    events_processed = sh.closures_run;
    trace = sh.trace;
    metrics = sh.metrics;
    agreement_violation = sh.violation;
    final_states = Array.copy sh.states;
  }
