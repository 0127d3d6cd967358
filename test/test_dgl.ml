(* The paper's algorithm: config derivations, session rules, and
   end-to-end behaviour of modified Paxos. *)

let delta = 0.01

let ts = 0.5

(* --- Config ----------------------------------------------------------- *)

let checkf = Alcotest.(check (float 1e-9))

let test_config_defaults () =
  let c = Dgl.Config.make ~n:5 ~delta () in
  checkf "sigma" (5. *. delta) c.Dgl.Config.sigma;
  checkf "epsilon" (delta /. 4.) c.Dgl.Config.epsilon;
  checkf "tau = max(2d+e, sigma)" (5. *. delta) (Dgl.Config.tau c);
  (* eps + 3 tau + 5 delta *)
  checkf "decision bound"
    ((delta /. 4.) +. (15. *. delta) +. (5. *. delta))
    (Dgl.Config.decision_bound c)

let test_config_timer_window () =
  List.iter
    (fun rho ->
      let c = Dgl.Config.make ~n:5 ~delta ~rho () in
      let lo, hi =
        Sim.Clock.real_duration_bounds ~rho c.Dgl.Config.timer_local
      in
      Alcotest.(check bool)
        (Printf.sprintf "real timeout in [4d, sigma] for rho=%.2f" rho)
        true
        (lo >= (4. *. delta) -. 1e-9 && hi <= c.Dgl.Config.sigma +. 1e-9))
    [ 0.; 0.01; 0.05; 0.1 ]

let test_config_tau_epsilon_dominates () =
  let c = Dgl.Config.make ~n:5 ~delta ~epsilon:(4. *. delta) ~sigma:(5. *. delta) () in
  checkf "tau = 2d + eps when bigger" (6. *. delta) (Dgl.Config.tau c)

let test_config_rejects_bad_params () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "sigma < 4 delta" true
    (bad (fun () -> Dgl.Config.make ~n:5 ~delta ~sigma:(3. *. delta) ()));
  Alcotest.(check bool) "infeasible window" true
    (bad (fun () -> Dgl.Config.make ~n:5 ~delta ~sigma:(4. *. delta) ~rho:0.1 ()));
  Alcotest.(check bool) "eps <= 0" true
    (bad (fun () -> Dgl.Config.make ~n:5 ~delta ~epsilon:0. ()));
  Alcotest.(check bool) "n <= 0" true
    (bad (fun () -> Dgl.Config.make ~n:0 ~delta ()));
  Alcotest.(check bool) "delta <= 0" true
    (bad (fun () -> Dgl.Config.make ~n:3 ~delta:0. ()))

(* --- Session ---------------------------------------------------------- *)

let test_session_rules () =
  let s = Dgl.Session.initial ~n:5 in
  Alcotest.(check int) "starts at 0" 0 s.Dgl.Session.number;
  Alcotest.(check bool) "not startable before expiry" false
    (Dgl.Session.can_start_phase1 s);
  let s = Dgl.Session.expire s in
  Alcotest.(check bool) "session 0 needs no majority" true
    (Dgl.Session.can_start_phase1 s);
  let s = Dgl.Session.enter s ~number:3 in
  Alcotest.(check int) "entered 3" 3 s.Dgl.Session.number;
  Alcotest.(check bool) "entry resets expiry" false
    (Dgl.Session.can_start_phase1 (Dgl.Session.expire s |> fun s ->
      Dgl.Session.enter s ~number:4));
  let s = Dgl.Session.expire s in
  Alcotest.(check bool) "session 3 needs majority" false
    (Dgl.Session.can_start_phase1 s);
  let s = List.fold_left Dgl.Session.hear s [ 0; 1; 2 ] in
  Alcotest.(check bool) "majority heard enables" true
    (Dgl.Session.can_start_phase1 s)

let test_session_enter_monotone () =
  let s = Dgl.Session.initial ~n:3 in
  Alcotest.(check bool) "cannot re-enter same session" true
    (try
       ignore (Dgl.Session.enter s ~number:0);
       false
     with Invalid_argument _ -> true)

(* --- Messages --------------------------------------------------------- *)

let test_message_metadata () =
  let open Dgl.Messages in
  Alcotest.(check (option int)) "1a ballot" (Some 7) (mbal (P1a { mbal = 7 }));
  Alcotest.(check (option int)) "decision no ballot" None
    (mbal (Decision { value = 1 }));
  List.iter
    (fun m -> Alcotest.(check bool) "info non-empty" true (info m <> ""))
    [
      P1a { mbal = 7 };
      P1b { mbal = 7; vote = Consensus.Vote.none };
      P2a { mbal = 7; value = 3 };
      P2b { mbal = 7; value = 3 };
      Decision { value = 3 };
    ]

(* --- End-to-end behaviour --------------------------------------------- *)

let run_scenario ?(n = 5) ?(seed = 1L) ?(network = Sim.Network.silent_until_ts)
    ?(faults = Sim.Fault.none) ?options ?injections ?cfg () =
  let cfg = match cfg with Some c -> c | None -> Dgl.Config.make ~n ~delta () in
  let sc = Sim.Scenario.make ~name:"dgl-test" ~n ~ts ~delta ~seed ~network ~faults () in
  Sim.Engine.run ?injections sc (Dgl.Modified_paxos.protocol ?options cfg)

let alive_procs ~n faults =
  List.filter
    (fun p -> Sim.Fault.alive_at faults ~proc:p ~time:ts)
    (List.init n (fun i -> i))

let test_decides_within_bound_various_networks () =
  List.iter
    (fun network ->
      List.iter
        (fun seed ->
          let n = 5 in
          let r = run_scenario ~n ~seed ~network () in
          Alcotest.(check bool) "all decided, agree" true
            (Sim.Engine.all_decided r);
          let cfg = Dgl.Config.make ~n ~delta () in
          let worst =
            Harness.Measure.worst_latency r
              ~procs:(List.init n (fun i -> i))
              ~from_time:ts ~delta
          in
          Alcotest.(check bool) "within bound" true
            (worst <= Dgl.Config.decision_bound cfg /. delta))
        [ 1L; 2L; 3L ])
    [
      Sim.Network.silent_until_ts;
      Sim.Network.eventually_synchronous ();
      Sim.Network.deterministic_after_ts;
      Sim.Network.always_synchronous;
    ]

let test_validity () =
  let r = run_scenario () in
  Alcotest.(check bool) "validity" true
    (Harness.Measure.check_safety r = Ok ())

let test_minority_crash_still_decides () =
  let n = 9 in
  let victims = Harness.Adversaries.faulty_minority ~n in
  let faults = Sim.Fault.make ~initially_down:victims [] in
  let r = run_scenario ~n ~faults () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d decided" p)
        true
        (r.Sim.Engine.decision_values.(p) <> None))
    (alive_procs ~n faults)

let test_obsolete_session1_ballots_absorbed () =
  let n = 9 in
  let victims = Harness.Adversaries.faulty_minority ~n in
  let faults = Sim.Fault.make ~initially_down:victims [] in
  let injections =
    Harness.Adversaries.dgl_session1_injections ~n ~from:ts
      ~spacing:(2. *. delta) ~victims
  in
  let r =
    run_scenario ~n ~faults ~network:Sim.Network.deterministic_after_ts
      ~injections ()
  in
  let worst =
    Harness.Measure.worst_latency r ~procs:(alive_procs ~n faults)
      ~from_time:ts ~delta
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  Alcotest.(check bool) "decided within bound despite obsolete ballots" true
    (worst <= Dgl.Config.decision_bound cfg /. delta)

(* The proof's step-1 invariant observed behaviourally: a minority that
   never hears a majority cannot advance past session 1.  Both Paxos
   variants run the same session rules ([Dgl.Session.Make]); each is
   checked through its own protocol record. *)
let gate_pins_partitioned_minority protocol session_number () =
  let n = 7 in
  let sc =
    (* Horizon a hair past TS: validate requires horizon > ts, and no
       message or timer can fire within 1e-9 s, so the states observed
       are still those at stabilization. *)
    Sim.Scenario.make ~name:"gate" ~n ~ts:10.0 ~delta ~seed:3L
      ~network:(Sim.Network.partitioned_until_ts [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ])
      ~horizon:(10.0 +. 1e-9) ~stop_on_all_decided:false ()
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let r = Sim.Engine.run sc (protocol cfg) in
  List.iter
    (fun p ->
      match r.Sim.Engine.final_states.(p) with
      | Some st ->
          let s = session_number st in
          if p >= 4 then
            Alcotest.(check bool)
              (Printf.sprintf "minority p%d pinned (session %d <= 1)" p s)
              true (s <= 1)
          else
            Alcotest.(check bool)
              (Printf.sprintf "majority p%d advances (session %d > 10)" p s)
              true (s > 10)
      | None -> Alcotest.fail "process down unexpectedly")
    (List.init n (fun i -> i))

let test_gate_pins_partitioned_minority =
  gate_pins_partitioned_minority
    (fun cfg -> Dgl.Modified_paxos.protocol cfg)
    Dgl.Modified_paxos.session_number

(* Multi-Paxos without its progress gate: every session timeout opens
   Start Phase 1, so only the majority-in-session rule holds the
   minority back. *)
let test_multi_paxos_gate_pins_partitioned_minority =
  gate_pins_partitioned_minority
    (fun cfg ->
      Smr.Multi_paxos.protocol ~progress_gate:false cfg
        ~workloads:(Array.make cfg.Dgl.Config.n []))
    Smr.Multi_paxos.session_number

let test_ungated_minority_races () =
  (* Without the gate the same minority keeps advancing on every
     timeout — the behaviour the gate exists to prevent. *)
  let n = 7 in
  let sc =
    Sim.Scenario.make ~name:"ungated" ~n ~ts:10.0 ~delta ~seed:3L
      ~network:(Sim.Network.partitioned_until_ts [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ])
      ~horizon:(10.0 +. 1e-9) ~stop_on_all_decided:false ()
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let options =
    { Dgl.Modified_paxos.default_options with session_gate = false }
  in
  let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol ~options cfg) in
  match r.Sim.Engine.final_states.(5) with
  | Some st ->
      Alcotest.(check bool) "minority session runs away" true
        (Dgl.Modified_paxos.session_number st > 10)
  | None -> Alcotest.fail "process down unexpectedly"

let test_restart_decides_quickly () =
  let n = 5 in
  let restart_at = ts +. (30. *. delta) in
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.) ~restart_at 2
  in
  let r =
    run_scenario ~n ~faults ~network:(Sim.Network.eventually_synchronous ()) ()
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let lat =
    Harness.Measure.worst_latency r ~procs:[ 2 ] ~from_time:restart_at ~delta
  in
  Alcotest.(check bool) "restarted process decides within restart bound" true
    (lat <= Dgl.Config.restart_bound cfg /. delta);
  Alcotest.(check bool) "no disagreement" true
    (r.Sim.Engine.agreement_violation = None)

let test_prestart_two_delays () =
  let n = 5 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let options = { Dgl.Modified_paxos.default_options with prestart = true } in
  let sc =
    Sim.Scenario.make ~name:"prestart" ~n ~ts:0. ~delta ~seed:1L
      ~network:Sim.Network.deterministic_after_ts ()
  in
  let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol ~options cfg) in
  let worst =
    Harness.Measure.worst_latency r
      ~procs:(List.init n (fun i -> i))
      ~from_time:0. ~delta
  in
  Alcotest.(check bool) "decides in ~2 message delays" true (worst <= 2.5);
  Alcotest.(check bool) "chooses p0's proposal" true
    (r.Sim.Engine.decision_values.(1)
    = Some r.Sim.Engine.scenario.Sim.Scenario.proposals.(0))

let test_decision_broadcast_speeds_up_restart () =
  let n = 5 in
  let restart_at = ts +. (50. *. delta) in
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.) ~restart_at 2
  in
  let lat broadcast_decision =
    let cfg = Dgl.Config.make ~n ~delta ~broadcast_decision () in
    let r =
      run_scenario ~n ~faults
        ~network:(Sim.Network.eventually_synchronous ())
        ~cfg ()
    in
    Harness.Measure.worst_latency r ~procs:[ 2 ] ~from_time:restart_at ~delta
  in
  (* With periodic gossip the restarted process hears a Decision within
     epsilon + delta instead of waiting for a session to complete. *)
  Alcotest.(check bool) "gossip makes restart fast" true (lat true <= 2.0);
  Alcotest.(check bool) "gossip not slower" true (lat true <= lat false)

let test_persisted_state_reused () =
  (* A process that crashes and restarts resumes from its persisted
     ballot: its final mbal is never below what it had persisted, which
     shows up as the restarted process rejoining the current session
     rather than session 0 (its final session must match the others). *)
  let n = 5 in
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.)
      ~restart_at:(ts +. (20. *. delta))
      1
  in
  let r =
    run_scenario ~n ~faults ~network:(Sim.Network.eventually_synchronous ()) ()
  in
  match (r.Sim.Engine.final_states.(1), r.Sim.Engine.final_states.(0)) with
  | Some restarted, Some witness ->
      Alcotest.(check bool) "rejoined the current session" true
        (Dgl.Modified_paxos.session_number restarted
         >= Dgl.Modified_paxos.session_number witness - 1)
  | _ -> Alcotest.fail "processes should be up at the end"

let test_anchored_value_wins () =
  (* The Paxos safety core: once a majority has accepted a value, every
     later ballot must choose it.  We force processes 0 and 1 (a
     majority of 3) to accept value 100 at a session-1 ballot before TS
     (their 2b answers are lost to the silent network, so nothing is
     decided yet), then let the algorithm run: whoever leads after TS
     must re-propose 100, never its own proposal. *)
  let n = 3 in
  let anchored_ballot = Consensus.Ballot.of_session ~n ~proc:2 1 in
  let injections =
    List.map
      (fun dst ->
        ( ts /. 2.,
          2,
          dst,
          Dgl.Messages.P2a { mbal = anchored_ballot; value = 100 } ))
      [ 0; 1 ]
  in
  List.iter
    (fun seed ->
      let r = run_scenario ~n ~seed ~injections () in
      Array.iter
        (fun v ->
          Alcotest.(check (option int)) "anchored value decided" (Some 100) v)
        r.Sim.Engine.decision_values)
    [ 1L; 2L; 3L; 4L ]

let test_decision_message_decides () =
  (* a Decision message makes the receiver decide directly *)
  let n = 3 in
  let injections = [ (ts +. 0.001, 1, 0, Dgl.Messages.Decision { value = 101 }) ] in
  let r = run_scenario ~n ~seed:1L ~injections () in
  Alcotest.(check (option int)) "p0 took the shortcut" (Some 101)
    r.Sim.Engine.decision_values.(0);
  Alcotest.(check bool) "and everyone agreed" true
    (r.Sim.Engine.agreement_violation = None)

let test_larger_cluster_flat_latency () =
  (* E1's flatness, as a regression test: n=33 must not be slower than
     ~3x n=3 under the same adversary. *)
  let lat n =
    let victims = Harness.Adversaries.faulty_minority ~n in
    let faults = Sim.Fault.make ~initially_down:victims [] in
    let r =
      run_scenario ~n ~faults ~network:Sim.Network.deterministic_after_ts
        ~injections:
          (Harness.Adversaries.dgl_session1_injections ~n ~from:ts
             ~spacing:(2. *. delta) ~victims)
        ()
    in
    Harness.Measure.worst_latency r ~procs:(alive_procs ~n faults)
      ~from_time:ts ~delta
  in
  let l3 = lat 3 and l33 = lat 33 in
  Alcotest.(check bool)
    (Printf.sprintf "flat in n (l3=%.1f, l33=%.1f)" l3 l33)
    true
    (l33 <= Stdlib.max (3. *. l3) 10.)

let suite =
  [
    Alcotest.test_case "config defaults and bound" `Quick test_config_defaults;
    Alcotest.test_case "config timer window" `Quick test_config_timer_window;
    Alcotest.test_case "config tau epsilon-dominated" `Quick
      test_config_tau_epsilon_dominates;
    Alcotest.test_case "config rejects bad params" `Quick
      test_config_rejects_bad_params;
    Alcotest.test_case "session start rules" `Quick test_session_rules;
    Alcotest.test_case "session entry monotone" `Quick
      test_session_enter_monotone;
    Alcotest.test_case "message metadata" `Quick test_message_metadata;
    Alcotest.test_case "decides within bound on all networks" `Quick
      test_decides_within_bound_various_networks;
    Alcotest.test_case "validity" `Quick test_validity;
    Alcotest.test_case "minority crash still decides" `Quick
      test_minority_crash_still_decides;
    Alcotest.test_case "obsolete session-1 ballots absorbed" `Quick
      test_obsolete_session1_ballots_absorbed;
    Alcotest.test_case "gate pins partitioned minority" `Quick
      test_gate_pins_partitioned_minority;
    Alcotest.test_case "multi-paxos gate pins partitioned minority" `Quick
      test_multi_paxos_gate_pins_partitioned_minority;
    Alcotest.test_case "ungated minority races" `Quick
      test_ungated_minority_races;
    Alcotest.test_case "restart decides quickly" `Quick
      test_restart_decides_quickly;
    Alcotest.test_case "prestart: two message delays" `Quick
      test_prestart_two_delays;
    Alcotest.test_case "decision gossip helps restarts" `Quick
      test_decision_broadcast_speeds_up_restart;
    Alcotest.test_case "persisted state reused on restart" `Quick
      test_persisted_state_reused;
    Alcotest.test_case "anchored value wins" `Quick test_anchored_value_wins;
    Alcotest.test_case "decision message decides" `Quick
      test_decision_message_decides;
    Alcotest.test_case "latency flat in n" `Quick
      test_larger_cluster_flat_latency;
  ]
