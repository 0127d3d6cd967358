(* Smaller sim modules: Sim_time, Stable_storage, Scenario, Metrics. *)

let checkf = Alcotest.(check (float 1e-9))

(* --- Sim_time ------------------------------------------------------- *)

let test_time_ops () =
  checkf "add" 1.5 (Sim.Sim_time.add 1.0 0.5);
  checkf "diff" 0.5 (Sim.Sim_time.diff 1.5 1.0);
  Alcotest.(check bool) "compare" true (Sim.Sim_time.compare 1.0 2.0 < 0);
  checkf "min" 1.0 (Sim.Sim_time.min 1.0 2.0);
  checkf "max" 2.0 (Sim.Sim_time.max 1.0 2.0);
  Alcotest.(check bool) "finite" true (Sim.Sim_time.is_finite 1.0);
  Alcotest.(check bool) "infinity not finite" false
    (Sim.Sim_time.is_finite Sim.Sim_time.infinity);
  Alcotest.(check bool) "window member" true
    (Sim.Sim_time.in_window 1.5 ~lo:1.0 ~hi:2.0);
  Alcotest.(check bool) "window edge" true
    (Sim.Sim_time.in_window 2.0 ~lo:1.0 ~hi:2.0);
  Alcotest.(check bool) "outside window" false
    (Sim.Sim_time.in_window 2.5 ~lo:1.0 ~hi:2.0);
  Alcotest.(check string) "to_string" "1.204000s"
    (Sim.Sim_time.to_string 1.204);
  Alcotest.(check string) "infinity renders" "inf"
    (Sim.Sim_time.to_string Sim.Sim_time.infinity)

(* --- Stable_storage -------------------------------------------------- *)

let test_storage () =
  let s = Sim.Stable_storage.create ~n:3 in
  Alcotest.(check (option int)) "empty" None (Sim.Stable_storage.load s ~proc:0);
  Sim.Stable_storage.save s ~proc:0 41;
  Sim.Stable_storage.save s ~proc:0 42;
  Alcotest.(check (option int)) "overwrites" (Some 42)
    (Sim.Stable_storage.load s ~proc:0);
  Alcotest.(check (option int)) "isolated slots" None
    (Sim.Stable_storage.load s ~proc:1);
  Alcotest.(check int) "persisted count" 1 (Sim.Stable_storage.persisted_count s);
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Stable_storage.create: n must be positive") (fun () ->
      ignore (Sim.Stable_storage.create ~n:0))

(* --- Scenario --------------------------------------------------------- *)

let test_scenario_defaults () =
  let sc = Sim.Scenario.make ~n:4 () in
  Alcotest.(check bool) "valid" true (Sim.Scenario.validate sc = Ok ());
  Alcotest.(check int) "proposal count" 4 (Array.length sc.Sim.Scenario.proposals);
  Alcotest.(check int) "distinct proposals" 4
    (List.length
       (List.sort_uniq compare (Array.to_list sc.Sim.Scenario.proposals)))

let test_scenario_validation () =
  let bad f = Sim.Scenario.validate f <> Ok () in
  Alcotest.(check bool) "n=0" true (bad (Sim.Scenario.make ~n:0 ()));
  Alcotest.(check bool) "delta<=0" true
    (bad (Sim.Scenario.make ~n:3 ~delta:0. ()));
  Alcotest.(check bool) "rho out of range" true
    (bad (Sim.Scenario.make ~n:3 ~rho:1.5 ()));
  Alcotest.(check bool) "negative ts" true
    (bad (Sim.Scenario.make ~n:3 ~ts:(-1.) ()));
  Alcotest.(check bool) "horizon before ts" true
    (bad (Sim.Scenario.make ~n:3 ~ts:5. ~horizon:1. ()));
  Alcotest.(check bool) "proposals length mismatch" true
    (bad (Sim.Scenario.make ~n:3 ~proposals:[| 1 |] ()));
  Alcotest.(check bool) "invalid fault script" true
    (bad
       (Sim.Scenario.make ~n:3
          ~faults:(Sim.Fault.make [ Sim.Fault.crash ~at:1. 9 ])
          ()))

let test_scenario_validation_edges () =
  let bad f = Sim.Scenario.validate f <> Ok () in
  Alcotest.(check bool) "horizon = ts" true
    (bad (Sim.Scenario.make ~n:3 ~ts:1. ~horizon:1. ()));
  Alcotest.(check bool) "negative trace_capacity" true
    (bad (Sim.Scenario.make ~n:3 ~trace_capacity:(-1) ()));
  Alcotest.(check bool) "fault event past horizon" true
    (bad
       (Sim.Scenario.make ~n:3 ~ts:1. ~horizon:2.
          ~faults:(Sim.Fault.make [ Sim.Fault.crash ~at:3. 0 ])
          ()));
  Alcotest.(check bool) "fault event at horizon accepted" true
    (Sim.Scenario.validate
       (Sim.Scenario.make ~n:3 ~ts:1. ~horizon:2.
          ~faults:(Sim.Fault.make [ Sim.Fault.crash ~at:2. 0 ])
          ())
    = Ok ())

let test_with_seed () =
  let sc = Sim.Scenario.make ~n:3 ~seed:1L () in
  let sc2 = Sim.Scenario.with_seed sc 9L in
  Alcotest.(check int64) "seed replaced" 9L sc2.Sim.Scenario.seed;
  Alcotest.(check int64) "original untouched" 1L sc.Sim.Scenario.seed

(* --- Metrics ---------------------------------------------------------- *)

let test_metrics_basic () =
  checkf "mean" 2. (Sim.Metrics.mean [ 1.; 2.; 3. ]);
  checkf "stddev" 1. (Sim.Metrics.stddev [ 1.; 2.; 3. ]);
  checkf "stddev singleton" 0. (Sim.Metrics.stddev [ 5. ]);
  checkf "p50" 2. (Sim.Metrics.percentile 0.5 [ 3.; 1.; 2. ]);
  checkf "p100" 3. (Sim.Metrics.percentile 1.0 [ 3.; 1.; 2. ]);
  checkf "p0 clamps to first" 1. (Sim.Metrics.percentile 0.0 [ 3.; 1.; 2. ])

let test_metrics_summary () =
  let s = Sim.Metrics.summarize [ 4.; 2.; 8.; 6. ] in
  Alcotest.(check int) "samples" 4 s.Sim.Metrics.samples;
  checkf "min" 2. s.Sim.Metrics.min;
  checkf "max" 8. s.Sim.Metrics.max;
  checkf "mean" 5. s.Sim.Metrics.mean;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Metrics.summarize: empty") (fun () ->
      ignore (Sim.Metrics.summarize []))

let test_linear_fit () =
  let a, b = Sim.Metrics.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  checkf "intercept" 1. a;
  checkf "slope" 2. b;
  Alcotest.check_raises "degenerate x"
    (Invalid_argument "Metrics.linear_fit: degenerate x values") (fun () ->
      ignore (Sim.Metrics.linear_fit [ (1., 1.); (1., 2.) ]))

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within sample range" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 30) (float_bound_exclusive 100.)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let p = Sim.Metrics.percentile q xs in
      let lo = List.fold_left Float.min Float.infinity xs in
      let hi = List.fold_left Float.max Float.neg_infinity xs in
      p >= lo && p <= hi)

(* --- Registry JSON ---------------------------------------------------- *)

(* The bytes BENCH_RESULTS.json embeds: sorted keys, %.6f sums, %g
   bounds, the overflow bucket last. *)
let test_registry_json_bytes () =
  let reg = Sim.Registry.create () in
  Sim.Registry.inc reg ~by:3 "b\"q";
  Sim.Registry.inc reg "a";
  Sim.Registry.observe ~buckets:[| 1.; 2.5 |] reg "h" 0.5;
  Sim.Registry.observe ~buckets:[| 1.; 2.5 |] reg "h" 3.;
  Alcotest.(check string)
    "to_json"
    {|{"counters":{"a":1,"b\"q":3},"histograms":{"h":{"n":2,"sum":3.500000,"buckets":[1,2.5],"counts":[1,0,1]}}}|}
    (Sim.Json.print (Sim.Registry.to_json reg))

(* A sample of infinity (a latency over delta = 0) must not print a bare
   [inf], which no JSON reader accepts. *)
let test_registry_json_non_finite () =
  let reg = Sim.Registry.create () in
  Sim.Registry.observe reg "lat" infinity;
  let s = Sim.Json.print (Sim.Registry.to_json reg) in
  match Sim.Json.parse s with
  | Error msg -> Alcotest.failf "%s: %s" s msg
  | Ok j ->
      let sum =
        Result.bind (Sim.Json.member "histograms" j) (fun h ->
            Result.bind (Sim.Json.member "lat" h) (Sim.Json.member "sum"))
      in
      Alcotest.(check bool) "sum is null" true (sum = Ok Sim.Json.Null)

let suite =
  [
    Alcotest.test_case "sim_time operations" `Quick test_time_ops;
    Alcotest.test_case "stable storage" `Quick test_storage;
    Alcotest.test_case "scenario defaults" `Quick test_scenario_defaults;
    Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
    Alcotest.test_case "scenario validation edges" `Quick
      test_scenario_validation_edges;
    Alcotest.test_case "with_seed" `Quick test_with_seed;
    Alcotest.test_case "metrics basics" `Quick test_metrics_basic;
    Alcotest.test_case "metrics summary" `Quick test_metrics_summary;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
    Alcotest.test_case "registry json bytes" `Quick test_registry_json_bytes;
    Alcotest.test_case "registry json: non-finite is null" `Quick
      test_registry_json_non_finite;
  ]
