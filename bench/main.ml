(* Benchmark harness.

   Two halves:
   1. Bechamel micro-benchmarks — one [Test.make] per experiment table,
      each timing that table's representative run
      ({!Harness.Experiments.representative}, untraced), so the cost of
      regenerating each table is itself tracked — plus substrate
      micro-benches (event queues, PRNG, the ordering oracle, the wire
      codec on a 1 KiB put frame, the KV state's apply over 100k
      decrees).
   2. The experiment tables themselves (E1-E11, A1-A4): the rows that
      reproduce each of the paper's quantitative claims.

   BENCH_SPEED=full widens the sweeps (more sizes, more seeds);
   BENCH_SKIP_MICRO=1 skips the expensive per-experiment bechamel half —
   the cheap substrate micro-benches (event queues, PRNG, oracle, wire
   codec) always run, so micro_ns_per_run is never empty.

   A third section benchmarks the model checker itself (layered-BFS
   throughput, visited-table footprint, serial-vs-parallel speedup);
   its numbers land in BENCH_RESULTS.json as mcheck_*.  A fourth runs a
   seeded fault-injection fuzz campaign over the default protocol mix;
   its throughput and counters land as fuzz_*. *)

open Bechamel

let delta = 0.01

let ts = 0.5

(* --- representative single runs, one per experiment table ----------- *)

(* The bechamel name of each experiment's single run, keyed by id. *)
let run_names =
  [
    ("e1", "modified-paxos-run");
    ("e2", "traditional-paxos-run");
    ("e3", "rotating-coordinator-run");
    ("e4", "restart-run");
    ("e5", "b-consensus-run");
    ("e6", "epsilon-run");
    ("e7", "prestart-run");
    ("e8", "sigma-run");
    ("e9", "drift-run");
    ("e10", "smr-run");
    ("e11", "omega-run");
    ("a1", "ungated-run");
    ("a2", "holdback-run");
    ("a3", "nojump-run");
    ("a4", "progress-gate-run");
  ]

(* --- substrate micro-benches ---------------------------------------- *)

(* The engine's actual queue since the packed-event rework: five unboxed
   int fields per event, int-compare ordering.  Keeps the historical
   [substrate/event-queue-1k] name so BENCH_RESULTS.json trajectories
   stay comparable — same 1k-churn workload.  The queue is reused across
   runs ([clear], not [create]) because that is how the engine uses it:
   one queue per simulation, millions of events; steady-state churn is
   the quantity the packed rework optimizes. *)
let event_queue_q = Sim.Packed_queue.create ()

let event_queue_churn () =
  let q = event_queue_q in
  Sim.Packed_queue.clear q;
  for i = 0 to 999 do
    Sim.Packed_queue.add q
      ~key:((i * 7919) mod 997)
      ~ord:i ~f1:i ~f2:0 ~f3:0
  done;
  for _ = 0 to 999 do
    ignore (Sim.Packed_queue.min_f1 q : int);
    Sim.Packed_queue.drop_min q
  done

(* Same churn on the generic comparator-based binary heap (the queue the
   packed one replaced; still used by non-engine callers). *)
let generic_event_queue_churn () =
  let cmp (a1, i1) (a2, i2) =
    let c = Float.compare a1 a2 in
    if c <> 0 then c else Int.compare i1 i2
  in
  let q = Sim.Event_queue.create ~cmp () in
  for i = 0 to 999 do
    Sim.Event_queue.add q (float_of_int ((i * 7919) mod 997), i)
  done;
  for _ = 0 to 999 do
    ignore (Sim.Event_queue.pop_min q)
  done

let prng_draws () =
  let rng = Sim.Prng.create 1L in
  for _ = 0 to 999 do
    ignore (Sim.Prng.float rng 1.0)
  done

let oracle_churn () =
  let o = ref (Bconsensus.Ordering_oracle.create ~owner:0 ~hold_local:0.02) in
  for i = 0 to 199 do
    let oo, stamp = Bconsensus.Ordering_oracle.next_stamp !o in
    let oo, _release =
      Bconsensus.Ordering_oracle.receive oo
        ~now_local:(float_of_int i *. 0.001)
        ~stamp (i, i)
    in
    o := oo
  done;
  ignore (Bconsensus.Ordering_oracle.due !o ~now_local:10.)

(* One 1 KiB put request frame through the socket codec, encode then
   decode: the live path's per-frame cost on large values, a payload
   CRC on each side included. *)
let wire_put_1k_msg =
  Smr.Wire.Request
    {
      seq = 1;
      cmd =
        Smr.Command.make ~id:1
          (Smr.Command.Kv_put
             {
               key = "key-000001";
               value = String.init 1024 (fun i -> Char.chr (i land 0xff));
             });
    }

let wire_put_1k () =
  let b = Smr.Wire.to_bytes wire_put_1k_msg in
  match Smr.Wire.decode b ~pos:0 ~avail:(Bytes.length b) with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bench: wire-put-1k frame failed to decode"

(* 100k single-command put decrees through a fresh [Kv_state], with
   ids shaped as [Replica.fresh_uid] stamps them ([seq * n + member]):
   the exactly-once reply cache grows by one entry per command and
   rehashes on the way, as on a live member. *)
let kv_apply_decrees =
  let value = String.make 16 'v' in
  Array.init 100_000 (fun i ->
      Smr.Command.make
        ~id:((i * 3) + 1)
        (Smr.Command.Kv_put { key = Printf.sprintf "k%d" (i land 1023); value }))

let kv_apply_100k () =
  let kv = Smr.Kv_state.create () in
  Array.iter (fun d -> ignore (Smr.Kv_state.apply kv d)) kv_apply_decrees

(* The cheap substrate micro-benches always run (microseconds each);
   BENCH_SKIP_MICRO only drops the per-experiment half, which re-times a
   whole simulated execution per sample. *)
let cheap_cases =
  [
    Test.make ~name:"substrate/event-queue-1k" (Staged.stage event_queue_churn);
    Test.make ~name:"substrate/generic-event-queue-1k"
      (Staged.stage generic_event_queue_churn);
    Test.make ~name:"substrate/prng-1k" (Staged.stage prng_draws);
    Test.make ~name:"substrate/ordering-oracle-200" (Staged.stage oracle_churn);
    Test.make ~name:"substrate/wire-put-1k" (Staged.stage wire_put_1k);
    Test.make ~name:"substrate/kv-apply-100k" (Staged.stage kv_apply_100k);
  ]

let expensive_cases =
  List.map
    (fun id ->
      match Harness.Experiments.representative id with
      | Some run ->
          Test.make
            ~name:(id ^ "/" ^ List.assoc id run_names)
            (Staged.stage (fun () -> ignore (run ~record_trace:false)))
      | None -> invalid_arg ("bench: no representative for " ^ id))
    Harness.Experiments.ids

(* [run_micro cases] prints the human table and returns
   [(name, ns_per_run option, r_square option)] rows for the JSON dump. *)
let run_micro cases =
  let tests = Test.make_grouped ~name:"repro" cases in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows = Sim.Sorted_tbl.bindings ~compare:String.compare results in
  Printf.printf "--- micro-benchmarks (monotonic clock, OLS ns/run) ---\n";
  let rows =
    List.map
      (fun (name, o) ->
        let est =
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Some est
          | _ -> None
        in
        let r2 = Analyze.OLS.r_square o in
        (match est with
        | Some est ->
            Printf.printf "  %-36s %12.0f ns/run  (r2 %s)\n" name est
              (match r2 with
              | Some r2 -> Printf.sprintf "%.3f" r2
              | None -> "n/a")
        | None -> Printf.printf "  %-36s (no estimate)\n" name);
        (name, est, r2))
      rows
  in
  print_newline ();
  rows

(* --- engine throughput and allocation instruments -------------------- *)

(* Steady-state engine speed over the hot-path token ring: n processes,
   one message event each per delta of virtual time, tracing off, rng-free
   network.  ~1M events per timed run, warmed up once so queue/arena
   growth is excluded. *)
let engine_stats () =
  let sc = Harness.Hotpath.scenario ~n:100 ~horizon:100. () in
  let events () =
    (Sim.Engine.run sc Harness.Hotpath.pinger).Sim.Engine.events_processed
  in
  ignore (events () : int);
  let t0 = Unix.gettimeofday () in
  let e = events () in
  let wall = Unix.gettimeofday () -. t0 in
  let events_per_s = if wall > 0. then float_of_int e /. wall else 0. in
  let words_per_event =
    Harness.Hotpath.alloc_words_per_event Harness.Hotpath.pinger ~n:3
      ~horizon_lo:1.0 ~horizon_hi:11.0
  in
  (* Whole-run allocation of a representative real workload: one
     modified-paxos execution under the conformance scenario (RNG-drawing
     network, tracing off), setup and boot/decide included. *)
  let words_per_run =
    let sc =
      Sim.Scenario.make ~name:"bench-alloc" ~n:3 ~ts ~delta ~seed:42L
        ~network:(Sim.Network.eventually_synchronous ())
        ~horizon:(ts +. (500. *. delta))
        ()
    in
    let cfg = Dgl.Config.make ~n:3 ~delta () in
    let once () =
      ignore
        (Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg)
          : _ Sim.Engine.run_result)
    in
    once ();
    let w0 = Gc.minor_words () in
    once ();
    Gc.minor_words () -. w0
  in
  Printf.printf
    "engine: %.2fM events/s; %.2f words/event steady-state, %.0f words per \
     modified-paxos run\n\n\
     %!"
    (events_per_s /. 1e6) words_per_event words_per_run;
  (events_per_s, words_per_event, words_per_run)

let engine_metric_names =
  [ "engine_events_per_s"; "alloc_words_per_event"; "alloc_words_per_run" ]

(* --- real-socket cluster throughput ---------------------------------- *)

(* An in-process 3-replica cluster on loopback (port 0, one Netio loop
   per replica thread) loaded by the blocking pipelined client — the
   same stack `consensus_sim serve`/`client --load` run across real
   processes, minus fork/exec.  Produces the serve_* family: headline
   numbers as top-level JSON keys, plus the replica-side counters and
   commit-latency histogram merged into ["metrics"] when a registry is
   supplied. *)
let serve_delta = 0.02

let serve_stats ?metrics ~commands ~pipeline () =
  let n = 3 in
  let cluster = Array.make n ("127.0.0.1", 0) in
  let replicas =
    Array.init n (fun id ->
        Smr.Replica.create
          {
            (Smr.Replica.default_config ~id ~cluster) with
            delta = serve_delta;
            batch = 256;
            window = 64;
            seed = 7;
          })
  in
  let ports = Array.map Smr.Replica.port replicas in
  Array.iter (fun r -> Smr.Replica.set_peer_ports r ports) replicas;
  let threads =
    Array.map (fun r -> Thread.create (fun () -> Smr.Replica.run r) ()) replicas
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Smr.Replica.stop replicas;
      Array.iter Thread.join threads)
    (fun () ->
      let endpoints = Array.map (fun p -> ("127.0.0.1", p)) ports in
      let c = Smr.Client.connect endpoints in
      let report =
        Fun.protect
          ~finally:(fun () -> Smr.Client.close c)
          (fun () ->
            Smr.Client.run_load c
              { Smr.Client.default_load with commands; pipeline; seed = 3 })
      in
      let pct q =
        1000. *. Smr.Client.percentile report.Smr.Client.latencies q
      in
      (match metrics with
      | Some reg ->
          Array.iter
            (fun l ->
              Sim.Registry.observe reg "serve_client_latency_delta"
                (l /. serve_delta))
            report.Smr.Client.latencies;
          Array.iter
            (fun r -> Sim.Registry.merge_into ~dst:reg (Smr.Replica.registry r))
            replicas
      | None -> ());
      Printf.printf
        "serve: %d commands at %.0f cmd/s over the loopback socket cluster \
         (pipeline %d; p50 %.2f ms, p99 %.2f ms)\n\n\
         %!"
        report.Smr.Client.completed report.Smr.Client.throughput pipeline
        (pct 0.5) (pct 0.99);
      (report.Smr.Client.throughput, pct 0.5, pct 0.99))

let serve_metric_names =
  [ "serve_commands_per_s"; "serve_latency_p50_ms"; "serve_latency_p99_ms" ]

(* --- chaos campaign throughput ---------------------------------------- *)

(* A seeded fault campaign through the in-process chaos proxy (see
   DESIGN.md §5i): chaos_commands_per_s is client throughput *through
   the adversary*, chaos_faults_injected the volume of interference the
   run absorbed.  Both are meaningless if the robustness contract
   breaks, so a failed campaign fails the bench. *)
let chaos_stats ?metrics ~commands ~pipeline () =
  let schedule =
    Chaos.Schedule.generate ~seed:7L ~n:3 ~ts:0.4 ~delta:serve_delta
      ~horizon:1.6 ()
  in
  let outcome =
    Chaos.Campaign.run
      {
        (Chaos.Campaign.default_config schedule) with
        Chaos.Campaign.commands;
        pipeline;
      }
  in
  if not (Chaos.Campaign.ok outcome) then begin
    Format.printf "%a" Chaos.Campaign.pp_outcome outcome;
    failwith "chaos campaign violated its robustness contract during bench"
  end;
  let reg = outcome.Chaos.Campaign.registry in
  let faults =
    List.fold_left
      (fun acc n -> acc + Sim.Registry.counter_total reg n)
      0
      [
        "chaos_dropped";
        "chaos_delayed";
        "chaos_duplicated";
        "chaos_reordered";
        "chaos_corrupted";
        "chaos_truncated";
        "chaos_resets";
      ]
  in
  let throughput =
    match outcome.Chaos.Campaign.report with
    | Some r -> r.Smr.Client.throughput
    | None -> 0.
  in
  (match metrics with
  | Some dst -> Sim.Registry.merge_into ~dst reg
  | None -> ());
  Printf.printf
    "chaos: %d commands at %.0f cmd/s through the fault proxy (%d faults \
     injected)\n\n\
     %!"
    commands throughput faults;
  (throughput, faults)

let chaos_metric_names = [ "chaos_commands_per_s"; "chaos_faults_injected" ]

(* --- code size --------------------------------------------------------- *)

(* Lines of lib/ and bin/ (.ml and .mli) that hold a token: the size of
   the program, tracked so simplifications show their shrink.  [None]
   when the sources are not on disk (e.g. an installed binary). *)
let loc_stats () =
  match Lint.Driver.find_root () with
  | None -> None
  | Some root ->
      let lib = Lint.Driver.code_lines ~root [ "lib" ]
      and bin = Lint.Driver.code_lines ~root [ "bin" ] in
      Printf.printf
        "code size: %d lines in lib/, %d in bin/ (non-blank, non-comment)\n\n%!"
        lib bin;
      Some (lib, bin)

let loc_metric_names = [ "loc_lib"; "loc_bin" ]

(* --- smoke mode ------------------------------------------------------- *)

(* [--smoke]: the cheap micro-benches plus the engine/allocation
   instruments, with the produced metric-name set diffed against the
   committed schema (bench/metric_schema.txt).  Run by `./dev check`, so
   a rename or silent disappearance of a performance metric fails CI
   before it corrupts the BENCH_RESULTS.json trajectory.  Never writes
   BENCH_RESULTS.json. *)
let smoke () =
  let micro = run_micro cheap_cases in
  ignore (engine_stats () : float * float * float);
  ignore (serve_stats ~commands:5_000 ~pipeline:128 () : float * float * float);
  ignore (chaos_stats ~commands:2_000 ~pipeline:64 () : float * int);
  let loc = loc_stats () in
  let produced =
    List.sort_uniq String.compare
      (List.map (fun (name, _, _) -> name) micro
      @ engine_metric_names @ serve_metric_names @ chaos_metric_names
      @ if loc = None then [] else loc_metric_names)
  in
  let schema_path =
    match Lint.Driver.find_root () with
    | Some root -> Filename.concat root "bench/metric_schema.txt"
    | None -> "bench/metric_schema.txt"
  in
  let committed =
    let ic = open_in schema_path in
    let rec go acc =
      match input_line ic with
      | line ->
          let line = String.trim line in
          go (if line = "" || line.[0] = '#' then acc else line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.sort_uniq String.compare acc
    in
    go []
  in
  let missing = List.filter (fun n -> not (List.mem n produced)) committed in
  let extra = List.filter (fun n -> not (List.mem n committed)) produced in
  if missing = [] && extra = [] then begin
    Printf.printf "bench smoke: ok (%d metric names match %s)\n"
      (List.length produced) schema_path;
    exit 0
  end
  else begin
    List.iter
      (fun n -> Printf.eprintf "bench smoke: missing metric %s\n" n)
      missing;
    List.iter
      (fun n ->
        Printf.eprintf
          "bench smoke: unexpected metric %s (add it to %s if intentional)\n" n
          schema_path)
      extra;
    exit 1
  end

(* --- machine-readable results dump ----------------------------------- *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_opt_float = function Some f -> json_float f | None -> "null"

let write_results ~path ~speed ~domains ~wall ~serial_wall ~micro ~metrics
    ~mcheck ~fuzz ~engine ~serve ~chaos ~invariants_ok ~lint ~loc =
  let mc_states, mc_wall, mc_states_per_s, mc_visited_mb, mc_speedup =
    mcheck
  in
  let fuzz_runs, fuzz_wall, fuzz_runs_per_s, fuzz_failures = fuzz in
  let events_per_s, words_per_event, words_per_run = engine in
  let serve_tp, serve_p50_ms, serve_p99_ms = serve in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"speed\": %s,\n" (json_string speed);
  p "  \"domains\": %d,\n" domains;
  p "  \"engine_events_per_s\": %s,\n" (json_float events_per_s);
  p "  \"alloc_words_per_event\": %s,\n" (json_float words_per_event);
  p "  \"alloc_words_per_run\": %s,\n" (json_float words_per_run);
  p "  \"experiments\": {\n";
  p "    \"wall_clock_s\": %s,\n" (json_float wall);
  p "    \"serial_wall_clock_s\": %s,\n" (json_opt_float serial_wall);
  p "    \"parallel_speedup\": %s\n"
    (match serial_wall with
    | Some s when wall > 0. -> json_float (s /. wall)
    | _ -> "null");
  p "  },\n";
  p "  \"mcheck_states\": %d,\n" mc_states;
  p "  \"mcheck_wall_clock_s\": %s,\n" (json_float mc_wall);
  p "  \"mcheck_states_per_s\": %s,\n" (json_float mc_states_per_s);
  p "  \"mcheck_visited_mb\": %s,\n" (json_float mc_visited_mb);
  p "  \"mcheck_speedup\": %s,\n" (json_opt_float mc_speedup);
  p "  \"fuzz_runs\": %d,\n" fuzz_runs;
  p "  \"fuzz_wall_clock_s\": %s,\n" (json_float fuzz_wall);
  p "  \"fuzz_runs_per_s\": %s,\n" (json_float fuzz_runs_per_s);
  p "  \"fuzz_failures\": %d,\n" fuzz_failures;
  p "  \"serve_commands_per_s\": %s,\n" (json_float serve_tp);
  p "  \"serve_latency_p50_ms\": %s,\n" (json_float serve_p50_ms);
  p "  \"serve_latency_p99_ms\": %s,\n" (json_float serve_p99_ms);
  (let chaos_tp, chaos_faults = chaos in
   p "  \"chaos_commands_per_s\": %s,\n" (json_float chaos_tp);
   p "  \"chaos_faults_injected\": %d,\n" chaos_faults);
  p "  \"trace_invariants_ok\": %b,\n" invariants_ok;
  (match lint with
  | Some (lint_ok, findings, rules_run, callgraph_nodes) ->
      p "  \"lint_ok\": %b,\n" lint_ok;
      p "  \"lint_findings\": %d,\n" findings;
      p "  \"lint_rules_run\": %d,\n" rules_run;
      p "  \"lint_callgraph_nodes\": %d,\n" callgraph_nodes
  | None ->
      p "  \"lint_ok\": null,\n";
      p "  \"lint_findings\": null,\n";
      p "  \"lint_rules_run\": null,\n";
      p "  \"lint_callgraph_nodes\": null,\n");
  (match loc with
  | Some (lib, bin) ->
      p "  \"loc_lib\": %d,\n" lib;
      p "  \"loc_bin\": %d,\n" bin
  | None ->
      p "  \"loc_lib\": null,\n";
      p "  \"loc_bin\": null,\n");
  p "  \"metrics\": %s,\n" (Sim.Registry.to_json metrics);
  p "  \"micro_ns_per_run\": [";
  List.iteri
    (fun i (name, est, r2) ->
      p "%s\n    { \"name\": %s, \"ns_per_run\": %s, \"r_square\": %s }"
        (if i = 0 then "" else ",")
        (json_string name) (json_opt_float est) (json_opt_float r2))
    micro;
  p "\n  ]\n}\n";
  close_out oc

let () =
  if Array.exists (String.equal "--smoke") Sys.argv then smoke ();
  let speed =
    match Sys.getenv_opt "BENCH_SPEED" with
    | Some "full" -> Harness.Experiments.Full
    | _ -> Harness.Experiments.Quick
  in
  let speed_name =
    match speed with Harness.Experiments.Full -> "full" | Quick -> "quick"
  in
  let micro =
    run_micro
      (if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then
         cheap_cases @ expensive_cases
       else cheap_cases)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let domains = Harness.Measure.domain_count () in
  Harness.Experiments.reset_metrics ();
  let tables, wall = time (fun () -> Harness.Experiments.all ~speed ()) in
  (* Aggregate counters/histograms from every run the sweeps performed,
     snapshotted before the serial re-run below double-counts them. *)
  let metrics = Harness.Experiments.metrics_snapshot () in
  Harness.Report.print_all Format.std_formatter tables;
  Format.printf "@.";
  Harness.Report.bar_chart Format.std_formatter
    ~title:
      "Headline figure: worst-case decision latency after TS, each \
       algorithm under its worst admissible adversary"
    ~unit_label:"delta"
    (Harness.Experiments.headline ~speed ());
  (* Re-run the sweeps on one domain so the JSON records the speedup the
     pool delivers on this machine. *)
  let serial_wall =
    if domains > 1 then
      let _, w =
        time (fun () ->
            Harness.Measure.with_domains 1 (fun () ->
                Harness.Experiments.all ~speed ()))
      in
      Some w
    else None
  in
  Format.printf "@.(experiments regenerated in %.1fs on %d domain%s%s, \
                 speed=%s)@."
    wall domains
    (if domains = 1 then "" else "s")
    (match serial_wall with
    | Some s when wall > 0. ->
        Printf.sprintf "; serial %.1fs, speedup %.2fx" s (s /. wall)
    | _ -> "")
    speed_name;
  (* Trace-driven invariant checking over one traced replay per
     experiment: the same checker the `trace` CLI and tests run. *)
  let invariants_ok =
    List.for_all
      (fun id ->
        match Harness.Experiments.replay id with
        | Some rp ->
            let ok =
              Harness.Invariants.ok rp.Harness.Experiments.invariants
            in
            if not ok then
              Format.printf "TRACE INVARIANT FAILURE in %s: %a@." id
                Harness.Invariants.pp rp.Harness.Experiments.invariants;
            ok
        | None -> false)
      Harness.Experiments.ids
  in
  Format.printf "trace invariants: %s on %d replayed scenarios@."
    (if invariants_ok then "OK" else "FAILED")
    (List.length Harness.Experiments.ids);
  (* Model-checker throughput: one deep bounded search of the paxos core
     (~2*10^5 states at depth 10) on the pool, re-run serially when the
     pool is real so the JSON records the speedup on this machine. *)
  let mcheck =
    let cfg =
      { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1;
        gate = true }
    in
    let properties = Mcheck.Explorer.all_properties cfg in
    let search ?registry ~domains () =
      Mcheck.Explorer.run ~max_depth:10 ~domains ?registry cfg
        ~max_states:1_000_000 ~properties
    in
    let o, mc_wall = time (fun () -> search ~registry:metrics ~domains ()) in
    let serial_wall =
      if domains > 1 then Some (snd (time (fun () -> search ~domains:1 ())))
      else None
    in
    let states_per_s =
      if mc_wall > 0. then float_of_int o.Mcheck.Explorer.states /. mc_wall
      else 0.
    in
    let visited_mb =
      float_of_int o.Mcheck.Explorer.table_words *. 8. /. 1e6
    in
    let speedup =
      match serial_wall with
      | Some s when mc_wall > 0. -> Some (s /. mc_wall)
      | _ -> None
    in
    Format.printf
      "mcheck: %d states, %d transitions in %.1fs (%.0f states/s, visited \
       table %.1f MB, %d domain%s%s)@."
      o.Mcheck.Explorer.states o.Mcheck.Explorer.transitions mc_wall
      states_per_s visited_mb domains
      (if domains = 1 then "" else "s")
      (match speedup with
      | Some sp -> Printf.sprintf ", speedup %.2fx" sp
      | None -> "");
    (o.Mcheck.Explorer.states, mc_wall, states_per_s, visited_mb, speedup)
  in
  (* Fuzzer throughput: a seeded campaign over the default protocol mix
     (the same workload `consensus_sim fuzz` runs).  Its counters land
     in the shared registry as fuzz_*; a healthy tree reports zero
     failures here. *)
  let fuzz =
    let budget =
      match speed with Harness.Experiments.Full -> 1000 | Quick -> 200
    in
    let summary, fz_wall =
      time (fun () -> Harness.Fuzz.campaign ~budget ~seed:42L ())
    in
    Harness.Fuzz.register_metrics metrics summary;
    let runs_per_s =
      if fz_wall > 0. then float_of_int summary.Harness.Fuzz.runs /. fz_wall
      else 0.
    in
    Format.printf
      "fuzz: %d runs in %.1fs (%.0f runs/s, %d failure%s, %d domain%s)@."
      summary.Harness.Fuzz.runs fz_wall runs_per_s
      summary.Harness.Fuzz.failures
      (if summary.Harness.Fuzz.failures = 1 then "" else "s")
      domains
      (if domains = 1 then "" else "s");
    (summary.Harness.Fuzz.runs, fz_wall, runs_per_s,
     summary.Harness.Fuzz.failures)
  in
  (* Static-analysis verdict alongside the dynamic one: the same pass
     `consensus_sim lint` runs, against the checked-in baseline.  [None]
     when the sources are not on disk (e.g. an installed binary). *)
  let lint =
    match Lint.Driver.find_root () with
    | None -> None
    | Some root ->
        let baseline =
          match Lint.Baseline.load (Filename.concat root "lint.baseline") with
          | Ok b -> b
          | Error _ -> Lint.Baseline.empty
        in
        let r = Lint.Driver.run ~root ~baseline () in
        Some
          (Lint.Driver.ok r, List.length r.findings, r.rules_run,
           r.callgraph_nodes)
  in
  (match lint with
  | Some (lint_ok, findings, rules_run, callgraph_nodes) ->
      Format.printf "lint: %s (%d findings, %d rules, %d graph nodes)@."
        (if lint_ok then "OK" else "FAILED")
        findings rules_run callgraph_nodes
  | None -> Format.printf "lint: skipped (no source tree)@.");
  let engine = engine_stats () in
  (* Socket-cluster throughput: sized so the load runs for a few seconds
     at the measured steady state (pipeline 1024 is the sweet spot; 2048
     thrashes the closed loop — see README). *)
  let serve =
    let commands =
      match speed with Harness.Experiments.Full -> 200_000 | Quick -> 50_000
    in
    serve_stats ~metrics ~commands ~pipeline:1024 ()
  in
  (* Same socket stack again, this time through the chaos proxy under
     the canonical seeded fault campaign. *)
  let chaos =
    let commands =
      match speed with Harness.Experiments.Full -> 50_000 | Quick -> 10_000
    in
    chaos_stats ~metrics ~commands ~pipeline:128 ()
  in
  let loc = loc_stats () in
  let path = "BENCH_RESULTS.json" in
  write_results ~path ~speed:speed_name ~domains ~wall ~serial_wall ~micro
    ~metrics ~mcheck ~fuzz ~engine ~serve ~chaos ~invariants_ok ~lint ~loc;
  Format.printf "(wrote %s)@." path
