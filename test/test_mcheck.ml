(* Bounded model checking of the session-gated ballot core.

   The model (lib/mcheck) is a time-free over-approximation of the
   Section 4 algorithm: every safety property verified here holds on all
   timed executions with n = 3 within the explored depth. *)

let cfg ~gate ~max_session =
  { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session; gate }

let run ?(max_depth = 8) ?(max_states = 500_000) cfg properties =
  Mcheck.Explorer.run ~max_depth cfg ~max_states ~properties

(* --- model basics ------------------------------------------------------ *)

let test_initial_state () =
  let c = cfg ~gate:true ~max_session:1 in
  let st = Mcheck.Model.initial c in
  Alcotest.(check bool) "agreement trivially" true (Mcheck.Model.agreement st);
  Alcotest.(check bool) "validity trivially" true (Mcheck.Model.validity c st);
  Alcotest.(check bool) "bound trivially" true
    (Mcheck.Model.obsolete_bound c st);
  Alcotest.(check int) "six initial moves" 6
    (List.length (Mcheck.Model.successors c st))

let test_decision_reachable () =
  (* the checker must be able to falsify properties: "nobody decides" is
     false within a short horizon *)
  let c = cfg ~gate:true ~max_session:1 in
  let o =
    run ~max_depth:10 c
      [
        ( "nobody-decides",
          fun st ->
            List.for_all
              (fun p -> Mcheck.Model.decided st p < 0)
              (List.init c.n Fun.id) );
      ]
  in
  match o.Mcheck.Explorer.violation with
  | Some ("nobody-decides", witness) ->
      Alcotest.(check bool) "witness has a decision" true
        (List.exists
           (fun p -> Mcheck.Model.decided witness p >= 0)
           (List.init c.n Fun.id))
  | _ -> Alcotest.fail "a decision should be reachable"

(* --- safety ------------------------------------------------------------- *)

let test_safety_gated_depth8 () =
  let c = cfg ~gate:true ~max_session:1 in
  let o = run ~max_depth:8 c (Mcheck.Explorer.all_properties c) in
  Alcotest.(check bool) "no violation" true (o.Mcheck.Explorer.violation = None);
  Alcotest.(check bool) "nontrivial state count" true
    (o.Mcheck.Explorer.states > 10_000)

let test_safety_gated_two_sessions () =
  let c = cfg ~gate:true ~max_session:2 in
  let o = run ~max_depth:8 c (Mcheck.Explorer.all_properties c) in
  Alcotest.(check bool) "no violation with deeper sessions" true
    (o.Mcheck.Explorer.violation = None)

let test_safety_ungated () =
  (* dropping the gate must not break agreement/validity — only the
     obsolete-ballot bound *)
  let c = cfg ~gate:false ~max_session:2 in
  let o = run ~max_depth:8 c (Mcheck.Explorer.safety_properties c) in
  Alcotest.(check bool) "ungated still safe" true
    (o.Mcheck.Explorer.violation = None)

let test_safety_gated_deep_slow () =
  (* Depth scales with MCHECK_DEPTH (default 9, ~3 s); set it higher for
     an overnight-style run. *)
  let depth =
    match Sys.getenv_opt "MCHECK_DEPTH" with
    | Some d -> int_of_string d
    | None -> 9
  in
  let c = cfg ~gate:true ~max_session:1 in
  let o = run ~max_depth:depth ~max_states:5_000_000 c
      (Mcheck.Explorer.all_properties c)
  in
  Alcotest.(check bool) "no violation at depth" true
    (o.Mcheck.Explorer.violation = None)

(* --- the gate invariant --------------------------------------------------- *)

let test_gate_preserves_obsolete_bound () =
  let c = cfg ~gate:true ~max_session:2 in
  let o =
    run ~max_depth:8 c
      [ ("obsolete-bound", fun st -> Mcheck.Model.obsolete_bound c st) ]
  in
  Alcotest.(check bool) "bound holds with the gate" true
    (o.Mcheck.Explorer.violation = None)

let test_ungated_violates_obsolete_bound () =
  let c = cfg ~gate:false ~max_session:2 in
  let o =
    run ~max_depth:6 c
      [ ("obsolete-bound", fun st -> Mcheck.Model.obsolete_bound c st) ]
  in
  match o.Mcheck.Explorer.violation with
  | Some ("obsolete-bound", _) -> ()
  | _ ->
      Alcotest.fail
        "without the gate a process should race two sessions ahead"

let test_outcome_pp () =
  let c = cfg ~gate:true ~max_session:1 in
  let o = run ~max_depth:3 c (Mcheck.Explorer.all_properties c) in
  let s = Format.asprintf "%a" Mcheck.Explorer.pp_outcome o in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* perfbench/run.py pins the outcome of this search (MCHECK_STATES,
   MCHECK_TRANSITIONS, no violation) and fails a benchmark run whose
   offline suite reports another.  This is the call perfbench/simsuite.ml
   makes, so a change that moves the outcome fails here first. *)
let test_perfbench_search_pin () =
  let c = cfg ~gate:true ~max_session:1 in
  let o =
    Mcheck.Explorer.run ~max_depth:10 ~domains:1 c ~max_states:1_000_000
      ~properties:(Mcheck.Explorer.all_properties c)
  in
  Alcotest.(check int) "states" 190003 o.Mcheck.Explorer.states;
  Alcotest.(check int) "transitions" 476977 o.Mcheck.Explorer.transitions;
  Alcotest.(check bool) "no violation" true (o.Mcheck.Explorer.violation = None)

let suite =
  [
    Alcotest.test_case "initial state and moves" `Quick test_initial_state;
    Alcotest.test_case "decisions are reachable" `Quick test_decision_reachable;
    Alcotest.test_case "safety, gated, depth 8" `Quick test_safety_gated_depth8;
    Alcotest.test_case "perfbench's pinned depth-10 search" `Quick
      test_perfbench_search_pin;
    Alcotest.test_case "safety, two-session cap" `Quick
      test_safety_gated_two_sessions;
    Alcotest.test_case "safety, ungated" `Quick test_safety_ungated;
    Alcotest.test_case "safety, gated, deeper" `Slow
      test_safety_gated_deep_slow;
    Alcotest.test_case "gate preserves obsolete bound" `Quick
      test_gate_preserves_obsolete_bound;
    Alcotest.test_case "ungated violates obsolete bound" `Quick
      test_ungated_violates_obsolete_bound;
    Alcotest.test_case "outcome printing" `Quick test_outcome_pp;
  ]
