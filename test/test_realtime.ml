(* The Netio-hosted real-time executor runs the very same scenarios and
   protocol records as the simulator and reports the same result.
   Wall-clock timing is inherently noisy, so these tests check safety
   exactly and liveness with generous margins. *)

let delta = 0.02

let scenario ?(n = 3) ?(ts = 0.15) ?(horizon = 3.0)
    ?(network = Sim.Network.silent_until_ts) ?(faults = Sim.Fault.none) () =
  Sim.Scenario.make ~name:"realtime-test" ~n ~ts ~delta ~seed:7L ~horizon
    ~network ~faults ~record_trace:true ()

(* Eventual synchrony that loses nothing before ts. *)
let lossless = Sim.Network.eventually_synchronous ~pre_loss:0. ()

let modified_paxos ?(n = 3) () =
  Dgl.Modified_paxos.protocol (Dgl.Config.make ~n ~delta ())

(* Agreement and validity, and a decision at every process in [procs]
   (default: all). *)
let check_consensus ~what ?procs (r : _ Sim.Engine.run_result) =
  (match Harness.Measure.check_safety r with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg));
  Alcotest.(check bool)
    (what ^ ": everyone decided")
    true
    (Sim.Engine.all_decided ?procs r)

(* The wall-clock trace satisfies the same trace invariants the
   simulator's traces do (no timer bounds: real scheduling jitters). *)
let check_invariants ~what r =
  let report = Harness.Invariants.check_run r in
  Alcotest.(check bool)
    (Format.asprintf "%s: trace invariants: %a" what Harness.Invariants.pp
       report)
    true
    (Harness.Invariants.ok report)

let test_modified_paxos_realtime () =
  let sc = scenario () in
  let r = Realtime.Netio_engine.run sc (modified_paxos ()) in
  check_consensus ~what:"modified paxos" r;
  (* messages were silenced before ts, so decisions come after it *)
  List.iter
    (fun (_, t, _) ->
      Alcotest.(check bool) "decided after ts" true (t >= sc.Sim.Scenario.ts))
    (Sim.Engine.decisions r);
  check_invariants ~what:"modified paxos" r;
  Alcotest.(check bool) "trace non-empty" true (Sim.Trace.length r.trace > 0);
  Alcotest.(check int) "metrics runs counter" 1
    (Sim.Registry.counter_total r.metrics "runs")

(* Every correct protocol of the table on the same wall-clock scenario,
   the way the conformance grid runs them in the simulator. *)
let test_table_realtime () =
  let n = 3 and sc = scenario () in
  List.iter
    (fun (entry : Harness.Protocols.entry) ->
      if entry.correct then
        match
          entry.build ~n ~delta ~ts:sc.Sim.Scenario.ts ~rho:0.
            ~faults:Sim.Fault.none ()
        with
        | Harness.Protocols.Packed { protocol; _ } ->
            let r = Realtime.Netio_engine.run sc protocol in
            check_consensus ~what:entry.name r;
            check_invariants ~what:entry.name r)
    Harness.Protocols.table

let test_initially_down () =
  (* p2 is down from the start: it never boots, so it arms no timer and
     receives nothing, while the majority p0, p1 decides and the stop
     rule ends the run long before its horizon. *)
  let down = 2 and horizon = 3.0 in
  let faults = Sim.Fault.make ~initially_down:[ down ] [] in
  let r =
    Realtime.Netio_engine.run
      (scenario ~horizon ~faults ())
      (modified_paxos ())
  in
  check_consensus ~what:"initially down" ~procs:[ 0; 1 ] r;
  Alcotest.(check bool) "p2 never decided" true
    (Option.is_none r.decision_values.(down));
  Alcotest.(check bool) "p2 down at the end" true
    (Option.is_none r.final_states.(down));
  Sim.Trace.iter
    (function
      | Sim.Trace.Timer_set { proc; _ } when proc = down ->
          Alcotest.fail "timer set at the down process"
      | Sim.Trace.Deliver { dst; _ } when dst = down ->
          Alcotest.fail "delivery to the down process"
      | _ -> ())
    r.trace;
  Alcotest.(check bool) "well before the horizon" true
    (r.end_time < horizon /. 2.)

let test_stable_from_start_is_fast () =
  (* with ts = 0 the protocol should finish long before the deadline *)
  let r =
    Realtime.Netio_engine.run
      (scenario ~ts:0. ~network:lossless ())
      (modified_paxos ())
  in
  check_consensus ~what:"stable start" r;
  Alcotest.(check bool) "well under the deadline" true (r.end_time < 2.0)

let test_smr_over_netio () =
  (* the most complex protocol record in the repository, on the wall
     clock: replicated logs must converge *)
  let n = 3 in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init 3 (fun k ->
              ( 0.15 +. (0.1 *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add (k + 1)) )))
  in
  let r =
    Realtime.Netio_engine.run
      (scenario ~ts:0.1 ~horizon:4.0 ())
      (Smr.Multi_paxos.protocol (Dgl.Config.make ~n ~delta ()) ~workloads)
  in
  Alcotest.(check bool) "no log divergence" true
    (Option.is_none r.agreement_violation);
  Array.iteri
    (fun p d ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d converged" p)
        true (Option.is_some d))
    r.decision_values

let test_crash_restart_over_netio () =
  (* a process crashes mid-chaos and restarts after stabilization: it
     must rebuild from stable storage and still decide *)
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:0.05 ~restart_at:0.4 2
  in
  let r =
    Realtime.Netio_engine.run
      (scenario ~horizon:4.0 ~faults ())
      (modified_paxos ())
  in
  check_consensus ~what:"crash+restart" r;
  match r.decision_times.(2) with
  | Some t ->
      Alcotest.(check bool) "restarted process decided after its restart"
        true (t >= 0.4)
  | None -> Alcotest.fail "restarted process never decided"

let test_crash_semantics_over_netio () =
  (* p2 is down from 0.1 s to 0.13 s while the network delivers
     everything (no pre-ts loss).  The window is shorter than its
     session timer, so timers armed before the crash fall due after the
     restart and must stay void; every message reaching it while down is
     a recorded, counted drop.  The run stops only once every fault has
     fired, so p0's late crash keeps it going until those stale timers
     are long due. *)
  let victim = 2 and t_crash = 0.1 and t_restart = 0.13 and t_last = 0.3 in
  let faults =
    Sim.Fault.make
      [
        Sim.Fault.crash ~at:t_crash victim;
        Sim.Fault.restart ~at:t_restart victim;
        Sim.Fault.crash ~at:t_last 0;
      ]
  in
  let r =
    Realtime.Netio_engine.run
      (scenario ~network:lossless ~horizon:4.0 ~faults ())
      (modified_paxos ())
  in
  check_consensus ~what:"crash semantics" r;
  Alcotest.(check int) "trace ring did not wrap" 0
    (Sim.Trace.dropped_oldest r.trace);
  let entries = Sim.Trace.entries r.trace in
  let crash_at, restart_at =
    List.fold_left
      (fun (c, rs) -> function
        | Sim.Trace.Crash { t; proc } when proc = victim -> (Some t, rs)
        | Sim.Trace.Restart { t; proc } when proc = victim -> (c, Some t)
        | _ -> (c, rs))
      (None, None) entries
  in
  let crash_at, restart_at =
    match (crash_at, restart_at) with
    | Some c, Some r -> (c, r)
    | _ -> Alcotest.fail "crash or restart missing from the trace"
  in
  let down t = t >= crash_at && t < restart_at in
  (* Walk the trace in execution order, keeping the victim's armed
     timers as (tag, fire_at); a crash voids them all, so every later
     fire must match a timer armed since. *)
  let armed = ref [] and voided = ref 0 in
  List.iter
    (function
      | Sim.Trace.Timer_set { proc; tag; fire_at; _ } when proc = victim ->
          armed := (tag, fire_at) :: !armed
      | Sim.Trace.Crash { proc; _ } when proc = victim ->
          voided :=
            !voided
            + List.length
                (List.filter (fun (_, f) -> f > restart_at && f < t_last) !armed);
          armed := []
      | Sim.Trace.Timer_fire { t; proc; tag } when proc = victim -> (
          Alcotest.(check bool) "no timer fires while down" false (down t);
          match List.partition (fun (g, f) -> g = tag && f <= t) !armed with
          | _ :: due, not_due -> armed := due @ not_due
          | [], _ ->
              Alcotest.failf "p%d timer tag=%d fired at %.4f was armed \
                              before the crash" victim tag t)
      | _ -> ())
    entries;
  Alcotest.(check bool) "a pre-crash timer fell due after the restart" true
    (!voided > 0);
  let sends = Hashtbl.create 64 in
  List.iter
    (function
      | Sim.Trace.Send { id; _ } -> Hashtbl.replace sends id ()
      | _ -> ())
    entries;
  let drops_to_victim = ref 0 and drops_while_down = ref 0 and drops = ref 0 in
  List.iter
    (function
      | Sim.Trace.Deliver { t; dst; _ } when dst = victim ->
          Alcotest.(check bool) "no delivery while down" false (down t)
      | Sim.Trace.Drop { t; id; dst; _ } ->
          incr drops;
          if dst = victim then begin
            incr drops_to_victim;
            if down t && Hashtbl.mem sends id then incr drops_while_down
          end
      | _ -> ())
    entries;
  Alcotest.(check bool) "messages reached the down process" true
    (!drops_while_down > 0);
  Alcotest.(check int) "every drop is counted" !drops r.messages_dropped;
  Alcotest.(check int) "drops to the victim in msgs_dropped" !drops_to_victim
    (Sim.Registry.counter_per_proc r.metrics "msgs_dropped").(victim)

let test_config_validation () =
  let bad sc =
    try
      ignore (Realtime.Netio_engine.run sc (modified_paxos ()));
      false
    with Invalid_argument _ -> true
  in
  let sc = scenario () in
  Alcotest.(check bool) "n=0" true (bad { sc with Sim.Scenario.n = 0 });
  Alcotest.(check bool) "proposal arity" true
    (bad { sc with Sim.Scenario.proposals = [| 1 |] });
  Alcotest.(check bool) "horizon before ts" true
    (bad { sc with Sim.Scenario.horizon = 0.1 });
  Alcotest.(check bool) "drifting clocks" true
    (bad { sc with Sim.Scenario.rho = 0.05 });
  Alcotest.(check bool) "bad fault spec" true
    (bad
       {
         sc with
         Sim.Scenario.faults = Sim.Fault.make [ Sim.Fault.crash ~at:0.1 99 ];
       })

let suite =
  [
    Alcotest.test_case "modified paxos over netio" `Slow
      test_modified_paxos_realtime;
    Alcotest.test_case "protocol table over netio" `Slow test_table_realtime;
    Alcotest.test_case "initially down over netio" `Slow test_initially_down;
    Alcotest.test_case "stable start is fast" `Slow
      test_stable_from_start_is_fast;
    Alcotest.test_case "smr over netio" `Slow test_smr_over_netio;
    Alcotest.test_case "crash+restart over netio" `Slow
      test_crash_restart_over_netio;
    Alcotest.test_case "crash voids timers and drops over netio" `Slow
      test_crash_semantics_over_netio;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
