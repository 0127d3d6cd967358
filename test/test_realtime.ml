(* The Netio-hosted real-time executor runs the very same protocol
   records as the simulator.  Wall-clock timing is inherently noisy, so
   these tests check safety exactly and liveness with generous margins. *)

let cfg ?(n = 3) ?(delta = 0.02) ?(ts = 0.15) ?(duration = 3.0)
    ?(pre_loss = 1.0) ?(seed = 7L) ?(faults = []) ?(record_trace = true) () =
  {
    Realtime.Netio_engine.n;
    delta;
    ts;
    duration;
    pre_loss;
    seed;
    faults;
    record_trace;
  }

let proposals n = Array.init n (fun i -> 100 + i)

let check_consensus ~what ~proposals:props
    (r : Realtime.Netio_engine.result) =
  Alcotest.(check bool) (what ^ ": no violation") false r.agreement_violation;
  let values =
    Array.to_list r.decisions |> List.filter_map (Option.map snd)
  in
  Alcotest.(check int)
    (what ^ ": everyone decided")
    (Array.length r.decisions)
    (List.length values);
  (match values with
  | [] -> Alcotest.fail (what ^ ": no decisions")
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) (what ^ ": agree") v v') rest;
      Alcotest.(check bool)
        (what ^ ": validity")
        true
        (Array.exists (( = ) v) props));
  ()

let test_modified_paxos_realtime () =
  let c = cfg () in
  let props = proposals c.Realtime.Netio_engine.n in
  let dgl_cfg =
    Dgl.Config.make ~n:c.Realtime.Netio_engine.n
      ~delta:c.Realtime.Netio_engine.delta ()
  in
  let r =
    Realtime.Netio_engine.run c ~proposals:props
      (Dgl.Modified_paxos.protocol dgl_cfg)
  in
  check_consensus ~what:"modified paxos" ~proposals:props r;
  (* messages were silenced before ts, so decisions come after it *)
  Array.iter
    (function
      | Some (t, _) ->
          Alcotest.(check bool) "decided after ts" true
            (t >= c.Realtime.Netio_engine.ts)
      | None -> ())
    r.decisions;
  (* the wall-clock trace satisfies the same trace invariants the
     simulator's traces do (no timer bounds: real scheduling jitters) *)
  let report = Harness.Invariants.check ~proposals:props r.trace in
  Alcotest.(check bool)
    (Format.asprintf "realtime trace invariants: %a" Harness.Invariants.pp
       report)
    true
    (Harness.Invariants.ok report);
  Alcotest.(check bool) "trace non-empty" true (Sim.Trace.length r.trace > 0);
  Alcotest.(check int) "metrics runs counter" 1
    (Sim.Registry.counter_total r.metrics "runs")

let test_b_consensus_realtime () =
  let c = cfg ~delta:0.02 () in
  let props = proposals c.Realtime.Netio_engine.n in
  let r =
    Realtime.Netio_engine.run c ~proposals:props
      (Bconsensus.Modified_b_consensus.protocol
         ~n:c.Realtime.Netio_engine.n ~delta:c.Realtime.Netio_engine.delta
         ~rho:0. ())
  in
  check_consensus ~what:"b-consensus" ~proposals:props r

let test_stable_from_start_is_fast () =
  (* with ts = 0 the protocol should finish long before the deadline *)
  let c = cfg ~ts:0. ~duration:3.0 ~pre_loss:0. () in
  let props = proposals c.Realtime.Netio_engine.n in
  let dgl_cfg =
    Dgl.Config.make ~n:c.Realtime.Netio_engine.n
      ~delta:c.Realtime.Netio_engine.delta ()
  in
  let r =
    Realtime.Netio_engine.run c ~proposals:props
      (Dgl.Modified_paxos.protocol dgl_cfg)
  in
  check_consensus ~what:"stable start" ~proposals:props r;
  Alcotest.(check bool) "well under the deadline" true (r.elapsed < 2.0)

let test_smr_over_netio () =
  (* the most complex protocol record in the repository, on the wall
     clock: replicated logs must converge *)
  let c = cfg ~n:3 ~delta:0.02 ~ts:0.1 ~duration:4.0 () in
  let n = c.Realtime.Netio_engine.n in
  let dgl_cfg = Dgl.Config.make ~n ~delta:c.Realtime.Netio_engine.delta () in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init 3 (fun k ->
              ( 0.15 +. (0.1 *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add (k + 1)) )))
  in
  let r =
    Realtime.Netio_engine.run c ~proposals:(proposals n)
      (Smr.Multi_paxos.protocol dgl_cfg ~workloads)
  in
  Alcotest.(check bool) "no log divergence" false r.agreement_violation;
  Array.iteri
    (fun p d ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d converged" p)
        true (d <> None))
    r.decisions

let test_crash_restart_over_netio () =
  (* a process crashes mid-chaos and restarts after stabilization: it
     must rebuild from stable storage and still decide *)
  let faults =
    [
      Realtime.Netio_engine.Crash (0.05, 2);
      Realtime.Netio_engine.Restart (0.4, 2);
    ]
  in
  let c = cfg ~ts:0.15 ~duration:4.0 ~faults () in
  let props = proposals c.Realtime.Netio_engine.n in
  let dgl_cfg =
    Dgl.Config.make ~n:c.Realtime.Netio_engine.n
      ~delta:c.Realtime.Netio_engine.delta ()
  in
  let r =
    Realtime.Netio_engine.run c ~proposals:props
      (Dgl.Modified_paxos.protocol dgl_cfg)
  in
  check_consensus ~what:"crash+restart" ~proposals:props r;
  (match r.decisions.(2) with
  | Some (t, _) ->
      Alcotest.(check bool) "restarted process decided after its restart"
        true (t >= 0.4)
  | None -> Alcotest.fail "restarted process never decided")

let test_crash_semantics_over_netio () =
  (* p2 is down from 0.1 s to 0.13 s while the network delivers
     everything (pre_loss = 0).  The window is shorter than its session
     timer, so timers armed before the crash fall due after the restart
     and must stay void; every message reaching it while down is a
     recorded, counted drop.  The run stops only once every fault has
     fired, so p0's late crash keeps it going until those stale timers
     are long due. *)
  let victim = 2 and t_crash = 0.1 and t_restart = 0.13 and t_last = 0.3 in
  let faults =
    [
      Realtime.Netio_engine.Crash (t_crash, victim);
      Realtime.Netio_engine.Restart (t_restart, victim);
      Realtime.Netio_engine.Crash (t_last, 0);
    ]
  in
  let c = cfg ~ts:0.15 ~pre_loss:0. ~duration:4.0 ~faults () in
  let props = proposals c.Realtime.Netio_engine.n in
  let dgl_cfg =
    Dgl.Config.make ~n:c.Realtime.Netio_engine.n
      ~delta:c.Realtime.Netio_engine.delta ()
  in
  let r =
    Realtime.Netio_engine.run c ~proposals:props
      (Dgl.Modified_paxos.protocol dgl_cfg)
  in
  check_consensus ~what:"crash semantics" ~proposals:props r;
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
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  let c = cfg () in
  let props = proposals 3 in
  let proto = Dgl.Modified_paxos.protocol (Dgl.Config.make ~n:3 ~delta:0.02 ()) in
  Alcotest.(check bool) "n=0" true
    (bad (fun () ->
         Realtime.Netio_engine.run
           { c with Realtime.Netio_engine.n = 0 }
           ~proposals:props proto));
  Alcotest.(check bool) "proposal arity" true
    (bad (fun () ->
         Realtime.Netio_engine.run c ~proposals:[| 1 |] proto));
  Alcotest.(check bool) "bad loss" true
    (bad (fun () ->
         Realtime.Netio_engine.run
           { c with Realtime.Netio_engine.pre_loss = 2.0 }
           ~proposals:props proto));
  Alcotest.(check bool) "bad fault spec" true
    (bad (fun () ->
         Realtime.Netio_engine.run
           { c with
             Realtime.Netio_engine.faults =
               [ Realtime.Netio_engine.Crash (0.1, 99) ] }
           ~proposals:props proto))

let suite =
  [
    Alcotest.test_case "modified paxos over netio" `Slow
      test_modified_paxos_realtime;
    Alcotest.test_case "b-consensus over netio" `Slow
      test_b_consensus_realtime;
    Alcotest.test_case "stable start is fast" `Slow
      test_stable_from_start_is_fast;
    Alcotest.test_case "smr over netio" `Slow test_smr_over_netio;
    Alcotest.test_case "crash+restart over netio" `Slow
      test_crash_restart_over_netio;
    Alcotest.test_case "crash voids timers and drops over netio" `Slow
      test_crash_semantics_over_netio;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
