(* Engine semantics, exercised through tiny purpose-built protocols. *)

module E = Sim.Engine

type ping_msg = Ping | Pong

(* Process 0 pings everyone at boot; receivers pong back; p0 decides on
   the first pong, others decide on the ping. *)
let ping_protocol =
  {
    E.name = "ping";
    on_boot =
      (fun ctx ->
        if E.self ctx = 0 then E.broadcast ctx Ping;
        0);
    on_message =
      (fun ctx st ~src:_ msg ->
        (match msg with
        | Ping ->
            E.send ctx ~dst:0 Pong;
            E.decide ctx 100
        | Pong -> E.decide ctx 100);
        st + 1);
    on_timer = (fun _ st ~tag:_ -> st);
    on_restart = (fun _ ~persisted -> match persisted with Some s -> s | None -> 0);
    msg_payload = (function Ping -> Sim.Trace.info "ping" | Pong -> Sim.Trace.info "pong");
  }

let base_scenario ?(n = 3) ?(seed = 1L) ?faults ?horizon ?network
    ?stop_on_all_decided ?record_trace () =
  Sim.Scenario.make ~name:"engine-test" ~n ~ts:0. ~delta:0.01 ~seed ?faults
    ?horizon ?network ?stop_on_all_decided ?record_trace ()

let test_ping_all_decide () =
  let r = E.run (base_scenario ()) ping_protocol in
  Alcotest.(check bool) "all decided" true (E.all_decided r);
  Alcotest.(check int) "value recorded" 100
    (match r.E.decision_values.(1) with Some v -> v | None -> -1)

let test_determinism () =
  let run () =
    let r = E.run (base_scenario ~n:5 ~seed:33L ()) ping_protocol in
    ( r.E.decision_times,
      r.E.messages_sent,
      r.E.messages_delivered,
      r.E.end_time )
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_seed_changes_timing () =
  let time seed =
    (E.run (base_scenario ~n:5 ~seed ()) ping_protocol).E.end_time
  in
  Alcotest.(check bool) "different seeds give different schedules" true
    (time 1L <> time 2L)

let test_broadcast_reaches_all_including_self () =
  let counters = Array.make 4 0 in
  let proto =
    {
      E.name = "bcast";
      on_boot = (fun ctx -> if E.self ctx = 2 then E.broadcast ctx Ping; 0);
      on_message =
        (fun ctx st ~src:_ _ ->
          counters.(E.self ctx) <- counters.(E.self ctx) + 1;
          E.decide ctx 0;
          st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  ignore (E.run (base_scenario ~n:4 ()) proto);
  Alcotest.(check (array int)) "each got exactly one" [| 1; 1; 1; 1 |] counters

let test_timer_fires_once_with_local_delay () =
  let fired = ref [] in
  let proto =
    {
      E.name = "timer";
      on_boot =
        (fun ctx ->
          E.set_timer ctx ~local_delay:0.05 ~tag:7;
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer =
        (fun ctx st ~tag ->
          fired := (E.self ctx, tag, E.oracle_time ctx) :: !fired;
          E.decide ctx 0;
          st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  ignore (E.run (base_scenario ~n:2 ()) proto);
  Alcotest.(check int) "one firing per process" 2 (List.length !fired);
  List.iter
    (fun (_, tag, t) ->
      Alcotest.(check int) "tag preserved" 7 tag;
      (* rho = 0, so local delay = real delay *)
      Alcotest.(check (float 1e-9)) "fire time" 0.05 t)
    !fired

let test_timer_respects_clock_rate () =
  (* With rho > 0 the real firing time is local_delay / rate, inside the
     theoretical bounds. *)
  let fire_time = ref 0. in
  let proto =
    {
      E.name = "timer-rho";
      on_boot =
        (fun ctx ->
          if E.self ctx = 0 then E.set_timer ctx ~local_delay:0.1 ~tag:0;
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer =
        (fun ctx st ~tag:_ ->
          if E.self ctx = 0 then fire_time := E.oracle_time ctx;
          E.decide ctx 0;
          st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let sc =
    Sim.Scenario.make ~name:"engine-test" ~n:1 ~ts:0. ~delta:0.01 ~rho:0.2
      ~seed:5L ()
  in
  ignore (E.run sc proto);
  let lo, hi = Sim.Clock.real_duration_bounds ~rho:0.2 0.1 in
  Alcotest.(check bool) "within drift bounds" true
    (!fire_time >= lo -. 1e-9 && !fire_time <= hi +. 1e-9)

let test_crash_cancels_timers_and_drops_messages () =
  let fired = ref 0 in
  let proto =
    {
      E.name = "crashy";
      on_boot =
        (fun ctx ->
          if E.self ctx = 1 then E.set_timer ctx ~local_delay:0.5 ~tag:0;
          if E.self ctx = 0 then E.send ctx ~dst:1 Ping;
          0);
      on_message = (fun _ _st ~src:_ _ -> Alcotest.fail "p1 should be down");
      on_timer =
        (fun _ st ~tag:_ ->
          incr fired;
          st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  (* p1 crashes almost immediately: before the ping arrives and before
     its timer fires. *)
  let faults = Sim.Fault.make [ Sim.Fault.crash ~at:0.00001 1 ] in
  let r =
    E.run
      (base_scenario ~n:2 ~faults ~horizon:1.0 ~stop_on_all_decided:false ())
      proto
  in
  ignore r;
  Alcotest.(check int) "timer never fired" 0 !fired

let test_restart_gets_persisted_state () =
  let observed = ref None in
  let proto =
    {
      E.name = "persist";
      on_boot =
        (fun ctx ->
          E.persist ctx 777;
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart =
        (fun ctx ~persisted ->
          observed := persisted;
          E.decide ctx 0;
          0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let faults = Sim.Fault.crash_then_restart ~crash_at:0.1 ~restart_at:0.2 0 in
  ignore
    (E.run
       (base_scenario ~n:1 ~faults ~horizon:0.5 ~stop_on_all_decided:false ())
       proto);
  Alcotest.(check (option int)) "persisted state handed back" (Some 777)
    !observed

let test_message_to_down_process_dropped () =
  let r =
    E.run
      (base_scenario ~n:3
         ~faults:(Sim.Fault.make ~initially_down:[ 1 ] [])
         ~horizon:0.2 ~stop_on_all_decided:false ())
      ping_protocol
  in
  Alcotest.(check bool) "p1 never decided" true
    (r.E.decision_values.(1) = None);
  Alcotest.(check bool) "some drop happened" true (r.E.messages_dropped >= 1)

let test_injection_delivered_at_time () =
  let got = ref [] in
  let proto =
    {
      E.name = "inject";
      on_boot = (fun _ -> 0);
      on_message =
        (fun ctx st ~src msg ->
          got := (src, msg, E.oracle_time ctx) :: !got;
          E.decide ctx 0;
          st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  ignore
    (E.run
       ~injections:[ (0.25, 9, 0, Ping) ]
       (base_scenario ~n:1 ~horizon:1.0 ())
       proto);
  match !got with
  | [ (9, Ping, t) ] -> Alcotest.(check (float 1e-9)) "at 0.25" 0.25 t
  | _ -> Alcotest.fail "expected exactly the injected message"

let test_horizon_stops_run () =
  let proto =
    {
      E.name = "forever";
      on_boot =
        (fun ctx ->
          E.set_timer ctx ~local_delay:0.1 ~tag:0;
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer =
        (fun ctx st ~tag:_ ->
          E.set_timer ctx ~local_delay:0.1 ~tag:0;
          st + 1);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let r =
    E.run (base_scenario ~n:1 ~horizon:1.0 ~stop_on_all_decided:false ()) proto
  in
  Alcotest.(check bool) "stopped at horizon" true (r.E.end_time <= 1.0);
  Alcotest.(check bool) "ticked about 10 times" true
    (match r.E.final_states.(0) with Some k -> k >= 9 && k <= 10 | None -> false)

let test_agreement_violation_flagged () =
  let proto =
    {
      E.name = "disagree";
      on_boot =
        (fun ctx ->
          E.decide ctx (E.self ctx);
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let r = E.run (base_scenario ~n:2 ()) proto in
  Alcotest.(check bool) "violation detected" true
    (r.E.agreement_violation <> None);
  Alcotest.(check bool) "all_decided reports false on violation" false
    (E.all_decided r)

let test_decide_idempotent () =
  let proto =
    {
      E.name = "double-decide";
      on_boot =
        (fun ctx ->
          E.decide ctx 1;
          E.decide ctx 2;
          (* second decide ignored *)
          Alcotest.(check bool) "has_decided" true (E.has_decided ctx);
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let r = E.run (base_scenario ~n:1 ()) proto in
  Alcotest.(check (option int)) "first decision wins" (Some 1)
    r.E.decision_values.(0);
  Alcotest.(check bool) "no violation from second decide" true
    (r.E.agreement_violation = None)

let test_trace_recording () =
  let r =
    E.run (base_scenario ~n:3 ~record_trace:true ()) ping_protocol
  in
  Alcotest.(check bool) "trace non-empty" true (Sim.Trace.length r.E.trace > 0);
  Alcotest.(check int) "decide entries match" 3
    (List.length (Sim.Trace.decisions r.E.trace))

let test_proposals_and_ctx_accessors () =
  let seen = ref [] in
  let proto =
    {
      E.name = "accessors";
      on_boot =
        (fun ctx ->
          seen := (E.self ctx, E.n_processes ctx, E.proposal ctx) :: !seen;
          ignore (Sim.Prng.next_int64 (E.rng ctx));
          E.note ctx "booted";
          E.decide ctx (E.proposal ctx);
          0);
      on_message = (fun _ st ~src:_ _ -> st);
      on_timer = (fun _ st ~tag:_ -> st);
      on_restart = (fun _ ~persisted:_ -> 0);
      msg_payload = (fun _ -> Sim.Trace.info "m");
    }
  in
  let sc =
    Sim.Scenario.make ~name:"engine-test" ~n:3 ~ts:0. ~delta:0.01 ~seed:1L
      ~proposals:[| 10; 20; 30 |] ()
  in
  ignore (E.run sc proto);
  Alcotest.(check (list (triple int int int)))
    "ctx accessors"
    [ (0, 3, 10); (1, 3, 20); (2, 3, 30) ]
    (List.sort compare !seen)

let test_invalid_scenario_rejected () =
  Alcotest.(check bool) "invalid scenario raises" true
    (try
       ignore (E.run (Sim.Scenario.make ~n:0 ()) ping_protocol);
       false
     with Invalid_argument _ -> true)

let prop_trace_times_monotone =
  (* the engine must process events in non-decreasing time order; the
     trace records processing order, so its timestamps are sorted *)
  QCheck.Test.make ~name:"event processing is time-monotone" ~count:30
    QCheck.(pair int64 (int_range 2 6))
    (fun (seed, n) ->
      let sc =
        Sim.Scenario.make ~name:"monotone" ~n ~ts:0.3 ~delta:0.01 ~seed
          ~network:(Sim.Network.eventually_synchronous ())
          ~record_trace:true ()
      in
      let cfg = Dgl.Config.make ~n ~delta:0.01 () in
      let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
      let times =
        List.map Sim.Trace.time_of (Sim.Trace.entries r.Sim.Engine.trace)
      in
      let rec sorted = function
        | a :: b :: rest -> a <= b && sorted (b :: rest)
        | _ -> true
      in
      sorted times)

(* A delivery (or a drop on arrival at a down receiver) copies its
   send's trace record; when a bounded ring has already overwritten the
   send, the engine builds the payload again.  Either way the retained
   entries must be the tail of the same run recorded unbounded. *)
let traced_paxos_run ?(network = Sim.Network.eventually_synchronous ())
    ~capacity () =
  let n = 5 and delta = 0.01 in
  let sc =
    Sim.Scenario.make ~name:"trace-copy" ~n ~ts:0.3 ~delta ~seed:17L ~network
      ~faults:(Sim.Fault.crash_then_restart ~crash_at:0.2 ~restart_at:0.35 3)
      ~record_trace:true ~trace_capacity:capacity ()
  in
  (Sim.Engine.run sc (Dgl.Modified_paxos.protocol (Dgl.Config.make ~n ~delta ())))
    .Sim.Engine.trace

let rendered tr =
  List.map (Format.asprintf "%a" Sim.Trace.pp_entry) (Sim.Trace.entries tr)

let test_bounded_trace_is_unbounded_tail () =
  let unbounded = traced_paxos_run ~capacity:0 () in
  let full = rendered unbounded and total = Sim.Trace.length unbounded in
  (* a drop of a message that was sent is a drop at a down receiver *)
  let sent = Hashtbl.create 256 and down_drops = ref 0 in
  Sim.Trace.iter
    (function
      | Sim.Trace.Send { id; _ } -> Hashtbl.replace sent id ()
      | Sim.Trace.Drop { id; _ } when Hashtbl.mem sent id -> incr down_drops
      | _ -> ())
    unbounded;
  Alcotest.(check bool) "run has receiver-down drops" true (!down_drops > 0);
  let orphaned = ref 0 in
  List.iter
    (fun capacity ->
      let tr = traced_paxos_run ~capacity () in
      Alcotest.(check (list string))
        (Printf.sprintf "capacity %d keeps the unbounded tail" capacity)
        (List.filteri (fun i _ -> i >= total - capacity) full)
        (rendered tr);
      (* deliveries whose send the ring had already overwritten: these
         took the rebuild path *)
      let sent = Hashtbl.create 64 in
      Sim.Trace.iter
        (function
          | Sim.Trace.Send { id; _ } -> Hashtbl.replace sent id ()
          | Sim.Trace.Deliver { id; _ } when not (Hashtbl.mem sent id) ->
              incr orphaned
          | _ -> ())
        tr)
    [ 1; 2; 7; 64; total - 1 ];
  Alcotest.(check bool) "some deliveries outlived their send" true
    (!orphaned > 0)

let test_duplicates_carry_send_payload () =
  let tr =
    traced_paxos_run
      ~network:
        (Sim.Network.with_duplication ~prob:0.5
           (Sim.Network.eventually_synchronous ()))
      ~capacity:0 ()
  in
  let sends = Hashtbl.create 256 and delivered = Hashtbl.create 256 in
  let deliveries = ref 0 in
  Sim.Trace.iter
    (function
      | Sim.Trace.Send { id; payload; _ } -> Hashtbl.replace sends id payload
      | Sim.Trace.Deliver { id; payload; _ } ->
          incr deliveries;
          Hashtbl.replace delivered id ();
          Alcotest.(check bool)
            (Printf.sprintf "delivery of #%d carries its send's payload" id)
            true
            (Hashtbl.find_opt sends id = Some payload)
      | _ -> ())
    tr;
  Alcotest.(check bool) "some message delivered twice" true
    (!deliveries > Hashtbl.length delivered)

let suite =
  [
    Alcotest.test_case "ping: all decide" `Quick test_ping_all_decide;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed changes timing" `Quick test_seed_changes_timing;
    Alcotest.test_case "broadcast includes self" `Quick
      test_broadcast_reaches_all_including_self;
    Alcotest.test_case "timer fires with local delay" `Quick
      test_timer_fires_once_with_local_delay;
    Alcotest.test_case "timer respects clock rate" `Quick
      test_timer_respects_clock_rate;
    Alcotest.test_case "crash cancels timers" `Quick
      test_crash_cancels_timers_and_drops_messages;
    Alcotest.test_case "restart gets persisted state" `Quick
      test_restart_gets_persisted_state;
    Alcotest.test_case "message to down process dropped" `Quick
      test_message_to_down_process_dropped;
    Alcotest.test_case "injection delivered on time" `Quick
      test_injection_delivered_at_time;
    Alcotest.test_case "horizon stops run" `Quick test_horizon_stops_run;
    Alcotest.test_case "agreement violation flagged" `Quick
      test_agreement_violation_flagged;
    Alcotest.test_case "decide idempotent" `Quick test_decide_idempotent;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "ctx accessors" `Quick
      test_proposals_and_ctx_accessors;
    Alcotest.test_case "invalid scenario rejected" `Quick
      test_invalid_scenario_rejected;
    QCheck_alcotest.to_alcotest prop_trace_times_monotone;
    Alcotest.test_case "bounded trace is the unbounded tail" `Quick
      test_bounded_trace_is_unbounded_tail;
    Alcotest.test_case "duplicates carry their send's payload" `Quick
      test_duplicates_carry_send_payload;
  ]
