(* Fuzzer tests: generator admissibility, scenario JSON round-trips,
   shrinker properties (same invariant, never grows, deterministic),
   campaign determinism across domain counts, corpus file round-trips
   and replay, and the b-consensus round-jump regression the fuzzer
   found. *)

module F = Harness.Fuzz
module Fs = Harness.Fuzz_scenario

(* --- Generation -------------------------------------------------------- *)

let case_arb =
  QCheck.make
    ~print:(fun (seed, index) -> Printf.sprintf "seed=%Ld index=%d" seed index)
    QCheck.Gen.(
      pair (map Int64.of_int (int_range 1 1_000_000)) (int_range 0 499))

let prop_generate_valid =
  QCheck.Test.make ~name:"generated scenarios validate and are pure"
    ~count:300 case_arb (fun (seed, index) ->
      let s = F.generate ~seed ~index () in
      Fs.validate s = Ok () && Fs.equal s (F.generate ~seed ~index ()))

let prop_generate_targeted_valid =
  QCheck.Test.make ~name:"targeted generation stays admissible" ~count:100
    case_arb (fun (seed, index) ->
      List.for_all
        (fun protocol ->
          let s = F.generate ~protocol ~seed ~index () in
          Fs.validate s = Ok () && s.Fs.protocol = protocol)
        (List.map (fun e -> e.Harness.Protocols.protocol) Harness.Protocols.table))

(* --- Scenario JSON ----------------------------------------------------- *)

(* Round-trip through the rendered text, not just the tree: corpus files
   must survive print -> parse losslessly (floats, int64 seeds). *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"scenario JSON round-trips through text" ~count:200
    case_arb (fun (seed, index) ->
      let s = F.generate ~seed ~index () in
      match Sim.Json.parse (Sim.Json.print_pretty (Fs.to_json s)) with
      | Error e -> QCheck.Test.fail_reportf "parse: %s" e
      | Ok j -> (
          match Fs.of_json j with
          | Error e -> QCheck.Test.fail_reportf "of_json: %s" e
          | Ok s' -> Fs.equal s s'))

(* --- Shrinking --------------------------------------------------------- *)

(* The ungated ablation is the reliable violation source: campaigns
   against it must find the obsolete-session liveness attack.  Collect a
   couple of failing scenarios deterministically so the shrinker tests
   cannot be vacuous. *)
let failing_ungated =
  lazy
    (let rec go i acc =
       if List.length acc >= 2 || i >= 40 then List.rev acc
       else
         let s = F.generate ~protocol:Fs.Ungated_paxos ~seed:1L ~index:i () in
         match (F.run_one s).F.violations with
         | [] -> go (i + 1) acc
         | v :: _ -> go (i + 1) ((s, v.Harness.Invariants.check) :: acc)
     in
     go 0 [])

let test_ungated_attack_found () =
  let fails = Lazy.force failing_ungated in
  Alcotest.(check bool) "ungated fuzzing finds violations" true (fails <> []);
  List.iter
    (fun (_, check) -> Alcotest.(check string) "check" "liveness" check)
    fails

let prop_shrink =
  QCheck.Test.make ~name:"shrinker: same invariant, never grows, pure"
    ~count:2
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1))
    (fun i ->
      let fails = Lazy.force failing_ungated in
      if fails = [] then QCheck.Test.fail_report "no failing scenario found";
      let s, check = List.nth fails (i mod List.length fails) in
      (* A reduced try budget keeps the suite fast; the properties hold
         at any budget. *)
      let r = F.shrink ~max_tries:200 s ~check in
      let still_fails =
        List.exists
          (fun v -> v.Harness.Invariants.check = check)
          (F.run_one r.F.shrunk).F.violations
      in
      let r' = F.shrink ~max_tries:200 s ~check in
      still_fails
      && Fs.size r.F.shrunk <= Fs.size s
      && Fs.equal r.F.shrunk r'.F.shrunk
      && r.F.steps = r'.F.steps && r.F.tries = r'.F.tries)

(* --- Campaign determinism ---------------------------------------------- *)

let render s = Format.asprintf "%a" F.pp_summary s

let test_campaign_domain_invariance () =
  let run d =
    Harness.Measure.with_domains d (fun () -> F.campaign ~budget:30 ~seed:7L ())
  in
  Alcotest.(check string) "summary identical at 1 and 4 domains"
    (render (run 1)) (render (run 4))

let test_campaign_domain_invariance_with_failures () =
  (* Budget 12 covers campaign index 11, the first seed-1 scenario that
     trips the obsolete-session attack, so the rendered counterexample
     (including its shrink) is part of the comparison. *)
  let run d =
    Harness.Measure.with_domains d (fun () ->
        F.campaign ~protocol:Fs.Ungated_paxos ~budget:12 ~seed:1L ())
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check bool) "campaign finds failures" true (s1.F.failures > 0);
  Alcotest.(check string) "summary identical at 1 and 4 domains" (render s1)
    (render s4)

(* --- Corpus ------------------------------------------------------------ *)

let sample_entry () =
  match Lazy.force failing_ungated with
  | [] -> Alcotest.fail "no failing scenario found"
  | (s, check) :: _ ->
      { F.format = F.corpus_format; check; detail = "unit test"; scenario = s }

let test_corpus_roundtrip () =
  let e = sample_entry () in
  match Sim.Json.parse (Sim.Json.print_pretty (F.entry_to_json e)) with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match F.entry_of_json j with
      | Error msg -> Alcotest.fail msg
      | Ok e' ->
          Alcotest.(check string) "check" e.F.check e'.F.check;
          Alcotest.(check string) "detail" e.F.detail e'.F.detail;
          Alcotest.(check bool) "scenario" true
            (Fs.equal e.F.scenario e'.F.scenario))

let test_corpus_save_load_replay () =
  let e = sample_entry () in
  let dir = Filename.get_temp_dir_name () in
  let path = F.save_entry ~dir e in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match F.load_entry path with
      | Error msg -> Alcotest.fail msg
      | Ok e' -> (
          Alcotest.(check bool) "loaded scenario" true
            (Fs.equal e.F.scenario e'.F.scenario);
          match F.replay e' with
          | Ok _ -> ()
          | Error (saw, _) ->
              Alcotest.failf "replay did not reproduce %s: %s" e.F.check saw))

(* --- Regression: b-consensus round-jump -------------------------------- *)

(* Found by `fuzz --budget 500 --seed 3 --protocol b-consensus`: p1/p2
   decide 3 in round 1 before TS inside a partition; p0 restarts, jumps
   from round 0 into a later round and (before the fix) wabcast a First
   carrying its stale estimate 0, which the oracle echoed into every
   stage-2 report — overturning the decided value.  Jumping processes
   must not contribute a First for rounds they never properly entered. *)
let bc_jump_scenario_json =
  {|{
  "name": "bc-round-jump",
  "protocol": "b-consensus",
  "n": 3,
  "ts": 0.067466681291881408,
  "delta": 0.0050000000000000001,
  "rho": 0.042728282690102377,
  "seed": 4842358710450799512,
  "horizon": 0.51746668129188145,
  "network": {
    "kind": "with-duplication",
    "prob": 0.10022875408849745,
    "base": { "kind": "partitioned-until-ts", "groups": [[1, 2]] }
  },
  "initially_down": [],
  "fault_events": [
    { "at": 0.045093023642165053, "proc": 0, "action": "crash" },
    { "at": 0.059178281496594029, "proc": 0, "action": "restart" }
  ],
  "proposals": [0, 3, 1],
  "injections": []
}|}

let test_bc_round_jump_regression () =
  match Sim.Json.parse bc_jump_scenario_json with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match Fs.of_json j with
      | Error msg -> Alcotest.fail msg
      | Ok s ->
          let o = F.run_one s in
          List.iter
            (fun v ->
              Alcotest.failf "violation: %s (%s)" v.Harness.Invariants.check
                v.Harness.Invariants.detail)
            o.F.violations;
          Alcotest.(check int) "all three decide" 3 o.F.decided)

(* perfbench/run.py pins the totals of the seed-42 campaign's first 400
   runs (FUZZ_TOTALS) and fails a benchmark run whose offline suite
   reports others.  These are the calls perfbench/simsuite.ml makes, so
   a change that moves the totals fails here, in the test suite, first. *)
let test_perfbench_campaign_pin () =
  let failures = ref 0 and events = ref 0 and msgs = ref 0 and decided = ref 0 in
  for index = 0 to 399 do
    let o = F.run_one (F.generate ~seed:42L ~index ()) in
    if o.F.violations <> [] then incr failures;
    events := !events + o.F.events;
    msgs := !msgs + o.F.msgs_sent;
    decided := !decided + o.F.decided
  done;
  Alcotest.(check int) "failures" 0 !failures;
  Alcotest.(check int) "events" 461860 !events;
  Alcotest.(check int) "messages" 528270 !msgs;
  Alcotest.(check int) "decided" 1808 !decided

(* Each entry's facts agree with what its builder returns: [takes_injections]
   exactly when the packed protocol has an injection encoder, and the
   names round-trip. *)
let test_protocol_table () =
  List.iter
    (fun (e : Harness.Protocols.entry) ->
      Alcotest.(check bool)
        (e.name ^ " round-trips its name") true
        (Harness.Protocols.of_name (String.uppercase_ascii e.name)
        = Some e.protocol);
      match
        e.build ~n:3 ~delta:0.01 ~ts:0.5 ~rho:0. ~faults:Sim.Fault.none ()
      with
      | Harness.Protocols.Packed { inject; _ } ->
          Alcotest.(check bool)
            (e.name ^ " injection encoder iff takes_injections")
            e.takes_injections (Option.is_some inject))
    Harness.Protocols.table;
  Alcotest.(check bool) "unknown name" true
    (Harness.Protocols.of_name "smr" = None)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_generate_valid;
    QCheck_alcotest.to_alcotest prop_generate_targeted_valid;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "ungated attack found" `Quick test_ungated_attack_found;
    Alcotest.test_case "perfbench's pinned campaign totals" `Quick
      test_perfbench_campaign_pin;
    QCheck_alcotest.to_alcotest prop_shrink;
    Alcotest.test_case "campaign domain invariance" `Quick
      test_campaign_domain_invariance;
    Alcotest.test_case "campaign domain invariance (failures)" `Quick
      test_campaign_domain_invariance_with_failures;
    Alcotest.test_case "corpus JSON round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus save/load/replay" `Quick
      test_corpus_save_load_replay;
    Alcotest.test_case "b-consensus round-jump regression" `Quick
      test_bc_round_jump_regression;
    Alcotest.test_case "protocol table" `Quick test_protocol_table;
  ]
