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

   A third section benchmarks the model checker itself (serial
   layered-BFS throughput, visited-table footprint, the pool's speedup
   over the serial search); its numbers land in BENCH_RESULTS.json as
   mcheck_*.  A fourth runs a seeded fault-injection fuzz campaign over
   the default protocol mix; its throughput and counters land as fuzz_*,
   and each protocol's cost per run as fuzz_us_per_run_<protocol>.

   The speed figures [engine_events_per_s], [mcheck_states_per_s] and
   [fuzz_runs_per_s] are each the median of [passes] timed passes, with
   the quartiles beside them as [<name>_q1] / [<name>_q3]: one pass
   swings by about 2x between back-to-back runs on a 2-vCPU host. *)

open Bechamel

let delta = 0.01

let ts = 0.5

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- spread over repeated passes -------------------------------------- *)

let passes = 5

(* [(q1, median, q3)] of a nonempty sample, interpolating linearly
   between ranks. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let last = Array.length a - 1 in
  let at q =
    let x = q *. float_of_int last in
    let i = int_of_float x in
    let j = Int.min (i + 1) last in
    a.(i) +. ((x -. float_of_int i) *. (a.(j) -. a.(i)))
  in
  (at 0.25, at 0.5, at 0.75)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Quartiles of [work /. wall] over the walls of several passes. *)
let rates work walls = quartiles (List.map (fun w -> work /. w) walls)

(* A speed metric's three names: median, first and third quartile. *)
let spread_names name = [ name; name ^ "_q1"; name ^ "_q3" ]

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
  let runs = List.init passes (fun _ -> time events) in
  let events_per_s =
    rates (float_of_int (fst (List.hd runs))) (List.map snd runs)
  in
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
  let q1, med, q3 = events_per_s in
  Printf.printf
    "engine: %.2fM events/s (q1 %.2fM, q3 %.2fM, %d passes); %.2f \
     words/event steady-state, %.0f words per modified-paxos run\n\n\
     %!"
    (med /. 1e6) (q1 /. 1e6) (q3 /. 1e6) passes words_per_event words_per_run;
  (events_per_s, words_per_event, words_per_run)

let engine_metric_names =
  spread_names "engine_events_per_s"
  @ [ "alloc_words_per_event"; "alloc_words_per_run" ]

(* --- model checker and fuzzer throughput ------------------------------ *)

(* Model-checker throughput: [passes] bounded searches of the paxos core
   to [depth] (~2*10^5 states at depth 10) on one domain, the serial
   search perfbench and ROADMAP quote.  When [pool] offers more than one
   domain the search is re-run on the pool, which shows only in
   [mcheck_speedup] (the ratio of the median walls).  [registry] sees
   the first pass only. *)
let mcheck_stats ?registry ~pool ~depth () =
  let cfg =
    { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1;
      gate = true }
  in
  let properties = Mcheck.Explorer.all_properties cfg in
  let search ?registry ~domains () =
    Mcheck.Explorer.run ~max_depth:depth ~domains ?registry cfg
      ~max_states:1_000_000 ~properties
  in
  let timed ~domains =
    List.init passes (fun i ->
        let registry = if i = 0 then registry else None in
        time (fun () -> search ?registry ~domains ()))
  in
  let runs = timed ~domains:1 in
  let o = fst (List.hd runs) and walls = List.map snd runs in
  let wall = median walls in
  let states_per_s = rates (float_of_int o.Mcheck.Explorer.states) walls in
  let visited_mb = float_of_int o.Mcheck.Explorer.table_words *. 8. /. 1e6 in
  let speedup =
    if pool > 1 then Some (wall /. median (List.map snd (timed ~domains:pool)))
    else None
  in
  let q1, med, q3 = states_per_s in
  Format.printf
    "mcheck: %d states, %d transitions, median %.2fs (%.0f states/s, q1 \
     %.0f, q3 %.0f, %d passes on 1 domain; visited table %.1f MB%s)@."
    o.Mcheck.Explorer.states o.Mcheck.Explorer.transitions wall med q1 q3
    passes visited_mb
    (match speedup with
    | Some sp -> Printf.sprintf ", speedup %.2fx on %d domains" sp pool
    | None -> "");
  (o.Mcheck.Explorer.states, wall, states_per_s, visited_mb, speedup)

let mcheck_metric_names =
  spread_names "mcheck_states_per_s"
  @ [ "mcheck_states"; "mcheck_wall_clock_s"; "mcheck_visited_mb";
      "mcheck_speedup" ]

(* Fuzzer throughput: [passes] seeded campaigns of [budget] runs over the
   default protocol mix (the workload `consensus_sim fuzz` runs).  The
   campaign is deterministic, so every pass returns the same summary;
   its counters land once in [registry] as fuzz_*.  A healthy tree
   reports zero failures here. *)
let fuzz_stats ?registry ~domains ~budget () =
  let runs =
    List.init passes (fun _ ->
        time (fun () -> Harness.Fuzz.campaign ~budget ~seed:42L ()))
  in
  let summary = fst (List.hd runs) and walls = List.map snd runs in
  Option.iter (fun r -> Harness.Fuzz.register_metrics r summary) registry;
  let n = summary.Harness.Fuzz.runs
  and failures = summary.Harness.Fuzz.failures in
  let runs_per_s = rates (float_of_int n) walls in
  let q1, med, q3 = runs_per_s in
  Format.printf
    "fuzz: %d runs, median %.2fs (%.0f runs/s, q1 %.0f, q3 %.0f, %d passes; \
     %d failure%s, %d domain%s)@."
    n (median walls) med q1 q3 passes failures
    (if failures = 1 then "" else "s")
    domains
    (if domains = 1 then "" else "s");
  (n, median walls, runs_per_s, failures)

let fuzz_metric_names =
  spread_names "fuzz_runs_per_s"
  @ [ "fuzz_runs"; "fuzz_wall_clock_s"; "fuzz_failures" ]

(* What a fuzz run of each protocol of the default mix costs: the
   protocol's share of the campaign's first [budget] scenarios run
   through [Fuzz.run_one] (traced and checked, as the campaign runs
   them) on this domain, in microseconds per run, the median over
   [passes].  A protocol the scenarios never draw reports nan. *)
let fuzz_protocol_metric p =
  "fuzz_us_per_run_"
  ^ String.map (function '-' -> '_' | c -> c) (Harness.Protocols.name p)

let fuzz_protocol_metric_names =
  List.map fuzz_protocol_metric Harness.Fuzz.default_protocols

let fuzz_protocol_costs ~budget =
  let scenarios =
    List.init budget (fun index -> Harness.Fuzz.generate ~seed:42L ~index ())
  in
  let costs =
    List.map
      (fun p ->
        let name = Harness.Protocols.name p in
        let runs =
          List.filter
            (fun fs ->
              String.equal name
                (Harness.Protocols.name fs.Harness.Fuzz_scenario.protocol))
            scenarios
        in
        let pass () =
          snd
            (time (fun () ->
                 List.iter
                   (fun fs ->
                     ignore (Harness.Fuzz.run_one fs : Harness.Fuzz.outcome))
                   runs))
        in
        let wall = median (List.init passes (fun _ -> pass ())) in
        (name, 1e6 *. wall /. float_of_int (List.length runs)))
      Harness.Fuzz.default_protocols
  in
  Format.printf "fuzz cost per run (us, median of %d passes over %d runs): %s@."
    passes budget
    (String.concat ", "
       (List.map (fun (name, us) -> Printf.sprintf "%s %.0f" name us) costs));
  List.map2
    (fun p (_, us) -> (fuzz_protocol_metric p, us))
    Harness.Fuzz.default_protocols costs

(* --- trace recording and export ------------------------------------- *)

(* What recording a trace adds to a run: the fuzz generator's
   Modified-Paxos scenarios (seed 42, as perfbench's engine layer uses
   them) run under the engine untraced and traced, engine time only, so
   [trace_overhead_frac] is (traced - untraced) / untraced.  The traced
   pass checks each trace with [Invariants.check_run], as a fuzz run
   does, and then releases it, so it records into the recycled buffer a
   fuzz campaign uses; [invariants_check_us_per_run] is the check's time
   per run.  Each figure keeps its best of [reps] alternating passes,
   which damps a host whose speed wanders.  [trace_export_ms] is
   [Trace.to_jsonl] over the A4 replay's trace (the largest replay),
   best of [reps]. *)
let trace_stats ~runs ~reps =
  let scenarios =
    List.init runs (fun index ->
        let fs =
          Harness.Fuzz.generate ~protocol:Harness.Fuzz_scenario.Modified_paxos
            ~seed:42L ~index ()
        in
        let cfg =
          Dgl.Config.make ~n:fs.Harness.Fuzz_scenario.n
            ~delta:fs.Harness.Fuzz_scenario.delta
            ~rho:fs.Harness.Fuzz_scenario.rho ()
        in
        (fs, cfg))
  in
  (* engine seconds and check seconds of one pass *)
  let pass ~record_trace =
    let engine = ref 0. and check = ref 0. in
    List.iter
      (fun (fs, cfg) ->
        let sc = Harness.Fuzz_scenario.to_scenario ~record_trace fs in
        let t0 = now () in
        let r = Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg) in
        let t1 = now () in
        engine := !engine +. (t1 -. t0);
        if record_trace then begin
          let report =
            Harness.Invariants.check_run
              ~timer_bounds:
                (fs.Harness.Fuzz_scenario.delta, cfg.Dgl.Config.sigma)
              r
          in
          check := !check +. (now () -. t1);
          if not (Harness.Invariants.ok report) then
            failwith "bench: invariant violation in a traced fuzz run";
          Sim.Trace.release r.Sim.Engine.trace
        end)
      scenarios;
    (!engine, !check)
  in
  ignore (pass ~record_trace:false : float * float);
  let off = ref infinity and on = ref infinity and check = ref infinity in
  for _ = 1 to reps do
    off := Float.min !off (fst (pass ~record_trace:false));
    let e, c = pass ~record_trace:true in
    on := Float.min !on e;
    check := Float.min !check c
  done;
  let overhead = (!on -. !off) /. !off in
  let check_us = 1e6 *. !check /. float_of_int runs in
  let trace =
    match Harness.Experiments.replay "a4" with
    | Some rp -> rp.Harness.Experiments.trace
    | None -> invalid_arg "bench: no a4 replay"
  in
  let export_s = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    ignore (Sim.Trace.to_jsonl trace : string);
    export_s := Float.min !export_s (now () -. t0)
  done;
  Printf.printf
    "trace: recording costs %.2f of the untraced engine time over %d \
     modified-paxos fuzz runs, checking %.0f us a run; a4 export (%d \
     entries) %.1f ms\n\n\
     %!"
    overhead runs check_us (Sim.Trace.length trace) (1e3 *. !export_s);
  (overhead, check_us, 1e3 *. !export_s)

let trace_metric_names =
  [ "trace_overhead_frac"; "invariants_check_us_per_run"; "trace_export_ms" ]

(* --- chaos campaign throughput ---------------------------------------- *)

(* A seeded fault campaign through the in-process chaos proxy (see
   DESIGN.md §5i): chaos_commands_per_s is client throughput *through
   the adversary*, chaos_faults_injected the volume of interference the
   run absorbed.  Both are meaningless if the robustness contract
   breaks, so a failed campaign fails the bench. *)
let chaos_stats ?metrics ~commands ~pipeline () =
  let schedule =
    Chaos.Schedule.generate ~seed:7L ~n:3 ~ts:0.4 ~delta:0.02
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
  ignore (engine_stats () : (float * float * float) * float * float);
  ignore (mcheck_stats ~pool:1 ~depth:6 ());
  ignore (fuzz_stats ~domains:1 ~budget:20 ());
  ignore (fuzz_protocol_costs ~budget:20 : (string * float) list);
  ignore (trace_stats ~runs:50 ~reps:1 : float * float * float);
  ignore (chaos_stats ~commands:2_000 ~pipeline:64 () : float * int);
  let loc = loc_stats () in
  let produced =
    List.sort_uniq String.compare
      (List.map (fun (name, _, _) -> name) micro
      @ engine_metric_names @ mcheck_metric_names @ fuzz_metric_names
      @ fuzz_protocol_metric_names
      @ trace_metric_names @ chaos_metric_names
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

(* Floats as %.6g lexemes; a non-finite or missing one is null. *)
let json_float f =
  if Float.is_finite f then Sim.Json.Num (Printf.sprintf "%.6g" f)
  else Sim.Json.Null

let json_opt f = function Some v -> f v | None -> Sim.Json.Null

(* A speed metric's median and quartiles as three fields. *)
let json_spread name (q1, med, q3) =
  List.combine (spread_names name) (List.map json_float [ med; q1; q3 ])

let write_results ~path ~speed ~domains ~wall ~serial_wall ~micro ~metrics
    ~mcheck ~fuzz ~fuzz_costs ~engine ~trace ~chaos ~invariants_ok ~lint ~loc =
  let open Sim.Json in
  let mc_states, mc_wall, mc_states_per_s, mc_visited_mb, mc_speedup =
    mcheck
  in
  let fuzz_runs, fuzz_wall, fuzz_runs_per_s, fuzz_failures = fuzz in
  let events_per_s, words_per_event, words_per_run = engine in
  let trace_overhead, check_us, export_ms = trace in
  let chaos_tp, chaos_faults = chaos in
  let lint_ok, findings, rules_run, callgraph_nodes =
    match lint with
    | Some (ok, f, r, c) -> (Bool ok, int f, int r, int c)
    | None -> (Null, Null, Null, Null)
  in
  let micro_entry (name, est, r2) =
    Obj
      [
        ("name", Str name);
        ("ns_per_run", json_opt json_float est);
        ("r_square", json_opt json_float r2);
      ]
  in
  let doc =
    Obj
      ([ ("speed", Str speed); ("domains", int domains);
         ("passes", int passes) ]
      @ json_spread "engine_events_per_s" events_per_s
      @ [
        ("alloc_words_per_event", json_float words_per_event);
        ("alloc_words_per_run", json_float words_per_run);
        ("trace_overhead_frac", json_float trace_overhead);
        ("invariants_check_us_per_run", json_float check_us);
        ("trace_export_ms", json_float export_ms);
        ( "experiments",
          Obj
            [
              ("wall_clock_s", json_float wall);
              ("serial_wall_clock_s", json_opt json_float serial_wall);
              ( "parallel_speedup",
                match serial_wall with
                | Some s when wall > 0. -> json_float (s /. wall)
                | _ -> Null );
            ] );
        ("mcheck_states", int mc_states);
        ("mcheck_wall_clock_s", json_float mc_wall);
      ]
      @ json_spread "mcheck_states_per_s" mc_states_per_s
      @ [
        ("mcheck_visited_mb", json_float mc_visited_mb);
        ("mcheck_speedup", json_opt json_float mc_speedup);
        ("fuzz_runs", int fuzz_runs);
        ("fuzz_wall_clock_s", json_float fuzz_wall);
      ]
      @ json_spread "fuzz_runs_per_s" fuzz_runs_per_s
      @ List.map (fun (name, us) -> (name, json_float us)) fuzz_costs
      @ [
        ("fuzz_failures", int fuzz_failures);
        ("chaos_commands_per_s", json_float chaos_tp);
        ("chaos_faults_injected", int chaos_faults);
        ("trace_invariants_ok", Bool invariants_ok);
        ("lint_ok", lint_ok);
        ("lint_findings", findings);
        ("lint_rules_run", rules_run);
        ("lint_callgraph_nodes", callgraph_nodes);
        ("loc_lib", json_opt (fun (lib, _) -> int lib) loc);
        ("loc_bin", json_opt (fun (_, bin) -> int bin) loc);
        ("metrics", Sim.Registry.to_json metrics);
        ("micro_ns_per_run", Arr (List.map micro_entry micro));
      ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (print_pretty doc);
      output_char oc '\n')

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
  let mcheck = mcheck_stats ~registry:metrics ~pool:domains ~depth:10 () in
  let fuzz =
    fuzz_stats ~registry:metrics ~domains
      ~budget:(match speed with Harness.Experiments.Full -> 1000 | Quick -> 200)
      ()
  in
  let fuzz_costs = fuzz_protocol_costs ~budget:200 in
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
  let trace = trace_stats ~runs:200 ~reps:3 in
  (* The socket stack through the chaos proxy under the canonical
     seeded fault campaign. *)
  let chaos =
    let commands =
      match speed with Harness.Experiments.Full -> 50_000 | Quick -> 10_000
    in
    chaos_stats ~metrics ~commands ~pipeline:128 ()
  in
  let loc = loc_stats () in
  let path = "BENCH_RESULTS.json" in
  write_results ~path ~speed:speed_name ~domains ~wall ~serial_wall ~micro
    ~metrics ~mcheck ~fuzz ~fuzz_costs ~engine ~trace ~chaos ~invariants_ok
    ~lint ~loc;
  Format.printf "(wrote %s)@." path
