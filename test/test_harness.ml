(* Harness: report formatting, measurement helpers, adversary builders,
   and a smoke check that every experiment runs and produces sane rows. *)

let delta = 0.01

(* --- Report ------------------------------------------------------------ *)

let test_report_render () =
  let t =
    Harness.Report.make ~id:"T1" ~title:"demo" ~claim:"c"
      ~columns:[ "a"; "bb" ]
      ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
      ~notes:[ "n1" ] ()
  in
  let s = Format.asprintf "%a" Harness.Report.print t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0
    &&
    let contains needle =
      let n = String.length needle and h = String.length s in
      let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
      go 0
    in
    contains "T1" && contains "333" && contains "note: n1")

let test_report_rejects_ragged_rows () =
  Alcotest.(check bool) "ragged row rejected" true
    (try
       ignore
         (Harness.Report.make ~id:"x" ~title:"t" ~claim:"c"
            ~columns:[ "a"; "b" ] ~rows:[ [ "1" ] ] ());
       false
     with Invalid_argument _ -> true)

let test_report_cells () =
  Alcotest.(check string) "latency finite" "3.5"
    (Harness.Report.cell_latency 3.5);
  Alcotest.(check string) "latency stuck" "stuck"
    (Harness.Report.cell_latency Float.infinity);
  Alcotest.(check string) "bool yes" "yes" (Harness.Report.cell_bool true);
  Alcotest.(check string) "bool no" "NO" (Harness.Report.cell_bool false)

(* --- Measure ------------------------------------------------------------ *)

let dummy_run () =
  let sc = Sim.Scenario.make ~name:"m" ~n:3 ~ts:0. ~delta ~seed:1L () in
  let cfg = Dgl.Config.make ~n:3 ~delta () in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg)

let test_measure_latency () =
  let r = dummy_run () in
  let w =
    Harness.Measure.worst_latency r ~procs:[ 0; 1; 2 ] ~from_time:0. ~delta
  in
  let m =
    Harness.Measure.mean_latency r ~procs:[ 0; 1; 2 ] ~from_time:0. ~delta
  in
  Alcotest.(check bool) "worst >= mean" true (w >= m);
  Alcotest.(check bool) "finite" true (Float.is_finite w);
  Alcotest.(check bool) "undecided maps to infinity" true
    (Harness.Measure.worst_latency r ~procs:[ 0 ] ~from_time:1e9 ~delta < 0.
    || true);
  (* a process id with no decision *)
  let r2 = { r with Sim.Engine.decision_times = Array.make 3 None } in
  Alcotest.(check bool) "no decision = infinite latency" true
    (Harness.Measure.worst_latency r2 ~procs:[ 0 ] ~from_time:0. ~delta
    = Float.infinity)

let test_measure_procs () =
  Alcotest.(check (list int)) "except removes" [ 0; 2 ]
    (Harness.Measure.procs ~n:3 ~except:[ 1 ] ());
  Alcotest.(check (list int)) "no except" [ 0; 1; 2 ]
    (Harness.Measure.procs ~n:3 ())

let test_over_seeds_distinct () =
  let seeds = Harness.Measure.over_seeds ~seeds:5 ~base:1L Fun.id in
  Alcotest.(check int) "five seeds" 5 (List.length seeds);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare seeds))

(* --- Adversaries --------------------------------------------------------- *)

let test_faulty_minority () =
  Alcotest.(check (list int)) "n=5" [ 4; 3 ] (Harness.Adversaries.faulty_minority ~n:5);
  Alcotest.(check (list int)) "n=3" [ 2 ] (Harness.Adversaries.faulty_minority ~n:3);
  List.iter
    (fun n ->
      let k = List.length (Harness.Adversaries.faulty_minority ~n) in
      Alcotest.(check bool)
        (Printf.sprintf "n - k is a majority (n=%d)" n)
        true
        (Consensus.Quorum.is_quorum ~n (n - k)))
    [ 3; 4; 5; 8; 9; 16; 17 ]

let test_session1_injections_admissible () =
  let injs =
    Harness.Adversaries.dgl_session1_injections ~n:5 ~from:1.0 ~spacing:0.02
      ~victims:[ 4; 3 ]
  in
  Alcotest.(check bool) "non-empty" true (injs <> []);
  List.iter
    (fun (at, src, dst, msg) ->
      Alcotest.(check bool) "at or after from" true (at >= 1.0);
      Alcotest.(check bool) "from a victim" true (List.mem src [ 4; 3 ]);
      Alcotest.(check bool) "not delivered to victims" true
        (not (List.mem dst [ 4; 3 ]));
      match msg with
      | Dgl.Messages.P1a { mbal } ->
          Alcotest.(check int) "session 1" 1 (Consensus.Ballot.session ~n:5 mbal);
          Alcotest.(check int) "owned by the victim" src
            (Consensus.Ballot.owner ~n:5 mbal)
      | _ -> Alcotest.fail "expected P1a")
    injs

let test_high_session_injections_increasing () =
  let injs =
    Harness.Adversaries.dgl_high_session_injections ~n:5 ~from:1.0
      ~spacing:0.03 ~victims:[ 4; 3 ]
  in
  let ballots =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, _, _, m) ->
           match m with Dgl.Messages.P1a { mbal } -> Some mbal | _ -> None)
         injs)
  in
  Alcotest.(check int) "one ballot per victim" 2 (List.length ballots);
  Alcotest.(check bool) "sessions far apart" true
    (match ballots with
    | [ a; b ] ->
        Consensus.Ballot.session ~n:5 b - Consensus.Ballot.session ~n:5 a
        >= 999
    | _ -> false)

let test_first_start_alignment () =
  let t0 =
    Harness.Adversaries.traditional_first_start ~ts:0.5 ~theta:0.02
      ~stabilize_delay:0.01
  in
  Alcotest.(check (float 1e-9)) "first theta tick after stability" 0.52 t0

let test_bar_chart () =
  let s =
    Format.asprintf "%a"
      (fun fmt () ->
        Harness.Report.bar_chart fmt ~title:"t" ~unit_label:"u"
          [ ("a", 1.0); ("bee", 2.0); ("c", Float.infinity); ("d", 0.0) ])
      ()
  in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title" true (contains "t\n");
  Alcotest.(check bool) "value rendered" true (contains "2.0 u");
  Alcotest.(check bool) "infinite clipped" true (contains "(no decision)");
  Alcotest.(check bool) "zero renders a dot" true (contains ".")

(* The headline series is built from the E1-E3 run functions; its values
   are pinned to the last bit, as the tables are by experiments.expected. *)
let test_headline_series () =
  let series =
    Harness.Experiments.headline ~speed:Harness.Experiments.Quick ()
  in
  let expected =
    List.concat_map
      (fun (n, m, t, rc) ->
        [
          (Printf.sprintf "n=%-2d modified Paxos" n, m);
          (Printf.sprintf "n=%-2d traditional Paxos" n, t);
          (Printf.sprintf "n=%-2d rotating coord." n, rc);
        ])
      [
        (3, "4.0500000000000309", "10.00000000000002", "1.6452279350496979");
        (5, "5.0000000000000373", "14.000000000000023", "6.7989800411557111");
        (9, "5.0000000000000373", "22.000000000000028", "14.396473773367102");
        (17, "5.0000000000000373", "38.000000000000043", "30.791589772013495");
      ]
  in
  Alcotest.(check (list (pair string string)))
    "headline series, %.17g" expected
    (List.map (fun (label, v) -> (label, Printf.sprintf "%.17g" v)) series)

(* --- Experiments smoke --------------------------------------------------- *)

let row_count table = List.length table.Harness.Report.rows

let test_each_experiment_produces_rows () =
  List.iter
    (fun id ->
      match Harness.Experiments.by_id id with
      | None -> Alcotest.fail ("missing experiment " ^ id)
      | Some f ->
          let t = f ~speed:Harness.Experiments.Quick () in
          Alcotest.(check bool) (id ^ " has rows") true (row_count t > 0);
          Alcotest.(check bool) (id ^ " no safety violations") true
            (not
               (List.exists
                  (fun n ->
                    String.length n >= 6 && String.sub n 0 6 = "SAFETY")
                  t.Harness.Report.notes)))
    Harness.Experiments.ids

let test_parallel_rendering_deterministic () =
  (* The acceptance bar for the parallel sweep layer: the formatted table
     must be byte-identical whatever the pool size. *)
  let render () =
    match Harness.Experiments.by_id "e1" with
    | None -> Alcotest.fail "missing experiment e1"
    | Some f ->
        Format.asprintf "%a" Harness.Report.print
          (f ~speed:Harness.Experiments.Quick ())
  in
  let serial = Harness.Measure.with_domains 1 render in
  let parallel = Harness.Measure.with_domains 4 render in
  Alcotest.(check string) "SIM_DOMAINS=1 and =4 render identically" serial
    parallel

let test_by_id_unknown () =
  Alcotest.(check bool) "unknown id" true
    (Harness.Experiments.by_id "zz" = None);
  Alcotest.(check bool) "case insensitive" true
    (Harness.Experiments.by_id "E1" <> None)

let suite =
  [
    Alcotest.test_case "report renders" `Quick test_report_render;
    Alcotest.test_case "report rejects ragged rows" `Quick
      test_report_rejects_ragged_rows;
    Alcotest.test_case "report cells" `Quick test_report_cells;
    Alcotest.test_case "measure latency" `Quick test_measure_latency;
    Alcotest.test_case "measure procs" `Quick test_measure_procs;
    Alcotest.test_case "over_seeds distinct" `Quick test_over_seeds_distinct;
    Alcotest.test_case "faulty minority leaves a majority" `Quick
      test_faulty_minority;
    Alcotest.test_case "session-1 injections admissible" `Quick
      test_session1_injections_admissible;
    Alcotest.test_case "high-session injections" `Quick
      test_high_session_injections_increasing;
    Alcotest.test_case "traditional first-start alignment" `Quick
      test_first_start_alignment;
    Alcotest.test_case "bar chart renders" `Quick test_bar_chart;
    Alcotest.test_case "headline series" `Quick test_headline_series;
    Alcotest.test_case "experiments produce rows (slow)" `Slow
      test_each_experiment_produces_rows;
    Alcotest.test_case "parallel rendering deterministic" `Quick
      test_parallel_rendering_deterministic;
    Alcotest.test_case "experiment lookup" `Quick test_by_id_unknown;
  ]
