(* The trace-driven invariant checker: clean traces pass, corrupted
   traces are flagged, and every experiment scenario's replay satisfies
   all invariants. *)

let mk entries =
  let tr = Sim.Trace.create ~enabled:true () in
  List.iter (Sim.Trace.record tr) entries;
  tr

let has_violation ~check report =
  List.exists
    (fun v -> v.Harness.Invariants.check = check)
    report.Harness.Invariants.violations

let send ~t ~id ~src ~dst kind =
  Sim.Trace.Send { t; id; src; dst; payload = Sim.Trace.info kind }

let deliver ~t ~id ~src ~dst kind =
  Sim.Trace.Deliver { t; id; src; dst; payload = Sim.Trace.info kind }

let clean_trace () =
  mk
    [
      send ~t:0.1 ~id:0 ~src:0 ~dst:1 "1a";
      Sim.Trace.Note { t = 0.15; proc = 0; text = "session:1:timer" };
      deliver ~t:0.2 ~id:0 ~src:0 ~dst:1 "1a";
      Sim.Trace.Timer_set { t = 0.2; proc = 1; tag = 1; fire_at = 0.5 };
      Sim.Trace.Note { t = 0.25; proc = 0; text = "session:2:message" };
      Sim.Trace.Timer_fire { t = 0.5; proc = 1; tag = 1 };
      Sim.Trace.Decide { t = 0.6; proc = 0; value = 7 };
      Sim.Trace.Decide { t = 0.7; proc = 1; value = 7 };
    ]

let test_clean_trace_passes () =
  let report =
    Harness.Invariants.check ~proposals:[| 7; 8 |] (clean_trace ())
  in
  Alcotest.(check bool)
    (Format.asprintf "clean: %a" Harness.Invariants.pp report)
    true
    (Harness.Invariants.ok report);
  Alcotest.(check int) "all entries examined" 8
    report.Harness.Invariants.entries_checked;
  Alcotest.(check bool) "not wrapped" false report.Harness.Invariants.wrapped

let test_agreement_violation () =
  let tr =
    mk
      [
        Sim.Trace.Decide { t = 0.6; proc = 0; value = 7 };
        Sim.Trace.Decide { t = 0.7; proc = 1; value = 8 };
      ]
  in
  let report = Harness.Invariants.check tr in
  Alcotest.(check bool) "flagged" false (Harness.Invariants.ok report);
  Alcotest.(check bool) "named agreement" true
    (has_violation ~check:"agreement" report)

let test_decide_once_violation () =
  let tr =
    mk
      [
        Sim.Trace.Decide { t = 0.6; proc = 0; value = 7 };
        Sim.Trace.Decide { t = 0.7; proc = 0; value = 7 };
      ]
  in
  Alcotest.(check bool) "double decide flagged" true
    (has_violation ~check:"decide-once" (Harness.Invariants.check tr))

let test_validity_violation () =
  let tr = mk [ Sim.Trace.Decide { t = 0.6; proc = 0; value = 99 } ] in
  Alcotest.(check bool) "unproposed value flagged" true
    (has_violation ~check:"validity"
       (Harness.Invariants.check ~proposals:[| 7; 8 |] tr));
  (* without proposals the same trace is fine *)
  Alcotest.(check bool) "no proposals, no validity check" true
    (Harness.Invariants.ok (Harness.Invariants.check tr))

let test_causality_violations () =
  (* a delivery whose send was never recorded *)
  let orphan = mk [ deliver ~t:0.2 ~id:5 ~src:0 ~dst:1 "1a" ] in
  Alcotest.(check bool) "orphan deliver flagged" true
    (has_violation ~check:"causality" (Harness.Invariants.check orphan));
  (* endpoints must match the minting send *)
  let mismatched =
    mk
      [
        send ~t:0.1 ~id:5 ~src:0 ~dst:1 "1a";
        deliver ~t:0.2 ~id:5 ~src:0 ~dst:2 "1a";
      ]
  in
  Alcotest.(check bool) "endpoint mismatch flagged" true
    (has_violation ~check:"causality" (Harness.Invariants.check mismatched));
  (* injected messages (no_origin) are exempt *)
  let injected =
    mk [ deliver ~t:0.2 ~id:Sim.Trace.no_origin ~src:0 ~dst:1 "1a" ]
  in
  Alcotest.(check bool) "injection exempt" true
    (Harness.Invariants.ok (Harness.Invariants.check injected))

(* The checker's findings, word for word, on a trace with one of each
   causality and timer fault: src and dst mismatches, a delivery before
   its send, an orphan, a drop that contradicts its send, a timer fired
   with nothing due and one set in the past.  A network refusal (a drop
   with no send) mints its id, so a later delivery of it is fine. *)
let test_violation_details () =
  let drop ~t ~id ~src ~dst =
    Sim.Trace.Drop { t; id; src; dst; payload = Sim.Trace.info "1a" }
  in
  let tr =
    mk
      [
        send ~t:0.1 ~id:5 ~src:0 ~dst:1 "1a";
        deliver ~t:0.2 ~id:5 ~src:2 ~dst:1 "1a";
        send ~t:0.4 ~id:6 ~src:0 ~dst:1 "1a";
        deliver ~t:0.3 ~id:6 ~src:0 ~dst:1 "1a";
        deliver ~t:0.5 ~id:9 ~src:1 ~dst:0 "1a";
        drop ~t:0.6 ~id:5 ~src:0 ~dst:2;
        drop ~t:0.7 ~id:7 ~src:1 ~dst:2;
        deliver ~t:0.8 ~id:7 ~src:1 ~dst:2 "1a";
        Sim.Trace.Timer_fire { t = 0.9; proc = 1; tag = 3 };
        Sim.Trace.Timer_set { t = 1.0; proc = 1; tag = 3; fire_at = 0.5 };
        Sim.Trace.Timer_fire { t = 1.1; proc = 1; tag = 3 };
      ]
  in
  Alcotest.(check (list string))
    "violations in trace order"
    [
      "causality: message #5 sent as 0->1 but delivery as 2->1";
      "causality: message #6 delivery at 0.300000s before its send at \
       0.400000s";
      "causality: delivery of message #9 1->0 at 0.500000s has no recorded \
       send";
      "causality: message #5 sent as 0->1 but drop as 0->2";
      "timer: p1 timer tag=3 fired at 0.900000s with no due Timer_set";
      "timer: p1 timer tag=3 set at 1.000000s to fire in the past";
    ]
    (List.map
       (fun v -> v.Harness.Invariants.check ^ ": " ^ v.Harness.Invariants.detail)
       (Harness.Invariants.check tr).Harness.Invariants.violations)

let test_session_monotonicity_violation () =
  let tr =
    mk
      [
        Sim.Trace.Note { t = 0.1; proc = 0; text = "session:3:timer" };
        Sim.Trace.Note { t = 0.2; proc = 0; text = "session:2:message" };
      ]
  in
  Alcotest.(check bool) "regressing session flagged" true
    (has_violation ~check:"session-monotonic"
       (Harness.Invariants.check tr))

let test_timer_violations () =
  let spurious = mk [ Sim.Trace.Timer_fire { t = 0.5; proc = 0; tag = 1 } ] in
  Alcotest.(check bool) "fire without set flagged" false
    (Harness.Invariants.ok (Harness.Invariants.check spurious));
  let past =
    mk [ Sim.Trace.Timer_set { t = 0.5; proc = 0; tag = 1; fire_at = 0.2 } ]
  in
  Alcotest.(check bool) "fire-in-past flagged" false
    (Harness.Invariants.ok (Harness.Invariants.check past))

let test_sigma_bound () =
  let delta = 0.01 in
  let sigma = 22. *. delta in
  let session_timer dur =
    mk [ Sim.Trace.Timer_set { t = 1.0; proc = 0; tag = 2; fire_at = 1.0 +. dur } ]
  in
  let check dur =
    Harness.Invariants.check ~timer_bounds:(delta, sigma) (session_timer dur)
  in
  Alcotest.(check bool) "duration inside [4 delta, sigma] ok" true
    (Harness.Invariants.ok (check (10. *. delta)));
  Alcotest.(check bool) "too short flagged" true
    (has_violation ~check:"sigma-timer" (check (2. *. delta)));
  Alcotest.(check bool) "too long flagged" true
    (has_violation ~check:"sigma-timer" (check (40. *. delta)));
  (* the resend timer (tag -1) is not a session timer *)
  let resend =
    mk [ Sim.Trace.Timer_set { t = 1.0; proc = 0; tag = -1; fire_at = 1.0 +. delta } ]
  in
  Alcotest.(check bool) "resend timer exempt" true
    (Harness.Invariants.ok
       (Harness.Invariants.check ~timer_bounds:(delta, sigma) resend))

let test_wrapped_trace_skips_causality () =
  (* once a bounded ring overwrites the minting sends, deliveries must
     not be reported as orphans *)
  let tr = Sim.Trace.create ~capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Sim.Trace.record tr
      (send ~t:(0.1 *. float_of_int i) ~id:i ~src:0 ~dst:1 "1a")
  done;
  for i = 0 to 9 do
    Sim.Trace.record tr
      (deliver ~t:(1.0 +. (0.1 *. float_of_int i)) ~id:i ~src:0 ~dst:1 "1a")
  done;
  let report = Harness.Invariants.check tr in
  Alcotest.(check bool) "wrapped" true report.Harness.Invariants.wrapped;
  Alcotest.(check bool)
    (Format.asprintf "no spurious violations: %a" Harness.Invariants.pp
       report)
    true
    (Harness.Invariants.ok report)

(* --- corrupted trace via the JSONL path (the ISSUE fixture) --------- *)

(* Replay a scenario, export its trace to JSONL, tamper with one decided
   value in the serialized form, re-import — the checker must flag the
   agreement violation the corruption introduced. *)
let test_corrupted_jsonl_flagged () =
  let rp =
    match Harness.Experiments.replay "e7" with
    | Some rp -> rp
    | None -> Alcotest.fail "replay e7 unavailable"
  in
  Alcotest.(check bool)
    (Format.asprintf "pristine replay is clean: %a" Harness.Invariants.pp
       rp.Harness.Experiments.invariants)
    true
    (Harness.Invariants.ok rp.Harness.Experiments.invariants);
  let jsonl = Sim.Trace.to_jsonl rp.Harness.Experiments.trace in
  (* corrupt the last decide line: swap its value for one nobody proposed *)
  let lines = String.split_on_char '\n' jsonl in
  let is_decide l =
    (* substring search for the event tag *)
    let tag = "\"ev\":\"decide\"" in
    let nl = String.length l and nt = String.length tag in
    let rec scan i = i + nt <= nl && (String.sub l i nt = tag || scan (i + 1)) in
    scan 0
  in
  let n_decides = List.length (List.filter is_decide lines) in
  Alcotest.(check bool) "fixture has decisions" true (n_decides > 0);
  let seen = ref 0 in
  let corrupted =
    List.map
      (fun l ->
        if is_decide l then (
          incr seen;
          if !seen = n_decides then
            (* rewrite the value field; the decide object ends "value":V} *)
            match String.rindex_opt l ':' with
            | Some i -> String.sub l 0 (i + 1) ^ "424242}"
            | None -> l
          else l)
        else l)
      lines
    |> String.concat "\n"
  in
  match Sim.Trace.of_jsonl corrupted with
  | Error msg -> Alcotest.fail ("corrupted JSONL should still parse: " ^ msg)
  | Ok tr ->
      let report =
        Harness.Invariants.check
          ?proposals:rp.Harness.Experiments.proposals
          ?timer_bounds:rp.Harness.Experiments.timer_bounds tr
      in
      Alcotest.(check bool) "corruption detected" false
        (Harness.Invariants.ok report);
      Alcotest.(check bool) "named agreement" true
        (has_violation ~check:"agreement" report);
      Alcotest.(check bool) "named validity" true
        (has_violation ~check:"validity" report)

(* --- every experiment scenario replays cleanly ---------------------- *)

let test_all_replays_pass () =
  List.iter
    (fun id ->
      match Harness.Experiments.replay id with
      | None -> Alcotest.fail (id ^ ": no replay defined")
      | Some rp ->
          Alcotest.(check bool)
            (Format.asprintf "%s: %a" id Harness.Invariants.pp
               rp.Harness.Experiments.invariants)
            true
            (Harness.Invariants.ok rp.Harness.Experiments.invariants);
          Alcotest.(check bool)
            (id ^ ": trace non-empty")
            true
            (Sim.Trace.length rp.Harness.Experiments.trace > 0))
    Harness.Experiments.ids

(* --- tracing does not perturb a run --------------------------------- *)

(* A replay claims to be its table row's run with the trace kept; that
   holds only if recording the trace changes nothing the protocols see. *)
let test_tracing_does_not_perturb () =
  List.iter
    (fun id ->
      match Harness.Experiments.representative id with
      | None -> Alcotest.fail (id ^ ": no representative")
      | Some run ->
          let plain = run ~record_trace:false
          and traced = run ~record_trace:true in
          Alcotest.(check (array (option int)))
            (id ^ ": decision values")
            plain.Sim.Engine.decision_values traced.Sim.Engine.decision_values;
          Alcotest.(check int)
            (id ^ ": messages sent")
            plain.Sim.Engine.messages_sent traced.Sim.Engine.messages_sent;
          Alcotest.(check int)
            (id ^ ": events processed")
            plain.Sim.Engine.events_processed
            traced.Sim.Engine.events_processed)
    Harness.Experiments.ids

(* --- the timer check against a list-based reference ----------------- *)

(* The timer check as it was before the checker kept a heap per
   (process, tag): a list of pending [fire_at] values, newest first; a
   fire takes the newest due one.  Kept here only as the reference the
   heap is held to. *)
let reference_timer_violations entries =
  let tol = 1e-9 in
  let pending = Hashtbl.create 8 in
  let get key = Option.value (Hashtbl.find_opt pending key) ~default:[] in
  let time_str = Sim.Sim_time.to_string in
  List.rev
    (List.fold_left
       (fun acc e ->
         match e with
         | Sim.Trace.Timer_set { t; proc; tag; fire_at } ->
             let acc =
               if Sim.Sim_time.compare fire_at t < 0 then
                 {
                   Harness.Invariants.check = "timer";
                   detail =
                     Printf.sprintf
                       "p%d timer tag=%d set at %s to fire in the past" proc
                       tag (time_str t);
                 }
                 :: acc
               else acc
             in
             Hashtbl.replace pending (proc, tag) (fire_at :: get (proc, tag));
             acc
         | Sim.Trace.Timer_fire { t; proc; tag } -> (
             let due_by = t +. tol in
             match
               List.partition
                 (fun fire_at -> Sim.Sim_time.compare fire_at due_by <= 0)
                 (get (proc, tag))
             with
             | [], _ ->
                 {
                   Harness.Invariants.check = "timer";
                   detail =
                     Printf.sprintf
                       "p%d timer tag=%d fired at %s with no due Timer_set"
                       proc tag (time_str t);
                 }
                 :: acc
             | _ :: due_rest, not_due ->
                 Hashtbl.replace pending (proc, tag) (due_rest @ not_due);
                 acc)
         | _ -> acc)
       [] entries)

(* Timer sets and fires at non-decreasing times on a grid of 10 ms
   steps, often several at one instant.  A set's [fire_at] lands on a
   later (or the same, or an earlier) grid point, or half a [tol] or two
   [tol]s either side of one, so fires find entries due exactly, within
   [tol], just out of reach, or none at all. *)
let arbitrary_timer_trace =
  let open QCheck.Gen in
  let tol = 1e-9 in
  let step =
    map2
      (fun (dk, proc, tag) (set, dj, eps) -> (dk, proc, tag, set, dj, eps))
      (triple (oneofl [ 0; 0; 0; 1; 2 ]) (int_range 0 1) (int_range (-1) 1))
      (triple bool (int_range (-1) 5)
         (oneofl [ 0.; tol /. 2.; -.tol /. 2.; 2. *. tol; -2. *. tol ]))
  in
  let build steps =
    let k = ref 0 in
    List.map
      (fun (dk, proc, tag, set, dj, eps) ->
        k := !k + dk;
        let t = 0.01 *. float_of_int !k in
        if set then
          Sim.Trace.Timer_set
            { t; proc; tag; fire_at = (0.01 *. float_of_int (!k + dj)) +. eps }
        else Sim.Trace.Timer_fire { t; proc; tag })
      steps
  in
  QCheck.make
    ~print:(fun es ->
      String.concat "\n"
        (List.map (Format.asprintf "%a" Sim.Trace.pp_entry) es))
    (map build (list_size (int_range 0 60) step))

let prop_timer_check_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"timer check gives the list-based reference's violations"
    arbitrary_timer_trace (fun entries ->
      let report = Harness.Invariants.check (mk entries) in
      report.Harness.Invariants.violations = reference_timer_violations entries)

let suite =
  [
    Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
    Alcotest.test_case "agreement violation" `Quick test_agreement_violation;
    Alcotest.test_case "decide-once violation" `Quick
      test_decide_once_violation;
    Alcotest.test_case "validity violation" `Quick test_validity_violation;
    Alcotest.test_case "causality violations" `Quick test_causality_violations;
    Alcotest.test_case "session monotonicity" `Quick
      test_session_monotonicity_violation;
    Alcotest.test_case "timer sanity" `Quick test_timer_violations;
    Alcotest.test_case "sigma timer bound" `Quick test_sigma_bound;
    Alcotest.test_case "wrapped ring skips causality" `Quick
      test_wrapped_trace_skips_causality;
    Alcotest.test_case "corrupted JSONL is flagged" `Quick
      test_corrupted_jsonl_flagged;
    Alcotest.test_case "all 15 experiment replays pass" `Slow
      test_all_replays_pass;
    Alcotest.test_case "tracing does not perturb a run" `Slow
      test_tracing_does_not_perturb;
    Alcotest.test_case "violation details" `Quick test_violation_details;
    QCheck_alcotest.to_alcotest prop_timer_check_matches_reference;
  ]
