(* The offline verification suite: the paper's tables, a seeded fuzz
   campaign and the bounded model-checker search, timed from outside.

   Untraced it times each table, each chunk of fuzz runs and the search,
   and reports the outputs the caller checks against pinned values.
   With [--trace] it instead times calls into each
   layer's public functions: protocol records handed to [Sim.Engine.run]
   are wrapped so handler time is split from engine time, and the
   [successors] / [fingerprint] / [properties] arguments of
   [Mcheck.Explore.run] are wrapped so the visited-set work is what is
   left over. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- the three jobs ---------------------------------------------------- *)

(* Each table timed on its own, in table order: per-table times let the
   caller take a median per table, which is steadier than timing the
   suite in one piece on a machine whose speed wanders. *)
let tables () =
  let timed =
    List.map
      (fun id ->
        match Harness.Experiments.by_id id with
        | Some f -> time (fun () -> f ~speed:Harness.Experiments.Quick ())
        | None -> failwith ("unknown experiment " ^ id))
      Harness.Experiments.ids
  in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Report.print_all ppf (List.map fst timed);
  Format.pp_print_flush ppf ();
  (Digest.to_hex (Digest.string (Buffer.contents buf)), List.map snd timed)

(* the campaign bench/main.ml runs (seed 42, default protocol mix), run
   index by index as [Harness.Fuzz.campaign] does and timed in chunks of
   [chunk] runs (a piece short enough that the caller's median per chunk
   smooths out the machine's speed); the outcome totals are what the
   caller checks *)
let fuzz_seed = 42L

type fuzz_totals = { failures : int; events : int; msgs : int; decided : int }

let fuzz ~runs ~chunk =
  let tot = ref { failures = 0; events = 0; msgs = 0; decided = 0 } in
  let one index =
    let o = Harness.Fuzz.run_one (Harness.Fuzz.generate ~seed:fuzz_seed ~index ()) in
    let t = !tot in
    tot :=
      {
        failures = (t.failures + if o.Harness.Fuzz.violations = [] then 0 else 1);
        events = t.events + o.Harness.Fuzz.events;
        msgs = t.msgs + o.Harness.Fuzz.msgs_sent;
        decided = t.decided + o.Harness.Fuzz.decided;
      }
  in
  let times =
    List.init (runs / chunk) (fun c ->
        snd (time (fun () -> for i = c * chunk to ((c + 1) * chunk) - 1 do one i done)))
  in
  (!tot, times)

let mcheck_cfg =
  { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1; gate = true }

let mcheck_depth = 10

let mcheck () =
  Mcheck.Explorer.run ~max_depth:mcheck_depth ~domains:1 mcheck_cfg
    ~max_states:1_000_000
    ~properties:(Mcheck.Explorer.all_properties mcheck_cfg)

let json_fields fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let num x = Printf.sprintf "%.9g" x

let str s = "\"" ^ String.escaped s ^ "\""

(* ---- untraced: job timings --------------------------------------------- *)

let nums xs = "[" ^ String.concat ", " (List.map num xs) ^ "]"

let untraced ~fuzz_runs =
  let digest, table_times = tables () in
  let f, fuzz_times = fuzz ~runs:fuzz_runs ~chunk:25 in
  let o, mcheck_s = time mcheck in
  [
    ("tables_digest", str digest);
    ("tables_times", nums table_times);
    ("fuzz_runs", string_of_int fuzz_runs);
    ("fuzz_failures", string_of_int f.failures);
    ("fuzz_events", string_of_int f.events);
    ("fuzz_msgs", string_of_int f.msgs);
    ("fuzz_decided", string_of_int f.decided);
    ("fuzz_times", nums fuzz_times);
    ("mcheck_states", string_of_int o.Mcheck.Explorer.states);
    ("mcheck_transitions", string_of_int o.Mcheck.Explorer.transitions);
    ("mcheck_complete", string_of_bool o.Mcheck.Explorer.complete);
    ("mcheck_violation", string_of_bool (o.Mcheck.Explorer.violation <> None));
    ("mcheck_table_words", string_of_int o.Mcheck.Explorer.table_words);
    ("mcheck_s", num mcheck_s);
  ]

(* ---- traced: layer timings -------------------------------------------- *)

(* A protocol record whose handlers add their wall time to [busy]. *)
let wrap busy (p : ('m, 's) Sim.Engine.protocol) : ('m, 's) Sim.Engine.protocol =
  let timed f =
    let t0 = now () in
    let r = f () in
    busy := !busy +. (now () -. t0);
    r
  in
  {
    p with
    Sim.Engine.on_boot = (fun ctx -> timed (fun () -> p.Sim.Engine.on_boot ctx));
    on_message =
      (fun ctx st ~src m -> timed (fun () -> p.Sim.Engine.on_message ctx st ~src m));
    on_timer =
      (fun ctx st ~tag -> timed (fun () -> p.Sim.Engine.on_timer ctx st ~tag));
    on_restart =
      (fun ctx ~persisted ->
        timed (fun () -> p.Sim.Engine.on_restart ctx ~persisted));
  }

(* Modified-Paxos scenarios of the fuzz generator, run directly under the
   engine with and without trace recording. *)
let engine_layer ~runs =
  let scenarios =
    List.init runs (fun index ->
        Harness.Fuzz.generate ~protocol:Harness.Fuzz_scenario.Modified_paxos
          ~seed:fuzz_seed ~index ())
  in
  let exec ~record_trace =
    let busy = ref 0. and events = ref 0 and check = ref 0. in
    let w0 = Gc.minor_words () in
    let (), wall =
      time (fun () ->
          List.iter
            (fun fs ->
              let sc = Harness.Fuzz_scenario.to_scenario ~record_trace fs in
              let cfg =
                Dgl.Config.make ~n:fs.Harness.Fuzz_scenario.n
                  ~delta:fs.Harness.Fuzz_scenario.delta
                  ~rho:fs.Harness.Fuzz_scenario.rho ()
              in
              let r = Sim.Engine.run sc (wrap busy (Dgl.Modified_paxos.protocol cfg)) in
              events := !events + r.Sim.Engine.events_processed;
              if record_trace then begin
                let rep, dt =
                  time (fun () ->
                      Harness.Invariants.check_run
                        ~timer_bounds:
                          (fs.Harness.Fuzz_scenario.delta, cfg.Dgl.Config.sigma)
                        r)
                in
                if not (Harness.Invariants.ok rep) then
                  failwith "invariant violation in a traced engine run";
                check := !check +. dt
              end)
            scenarios)
    in
    (wall -. !check, !busy, !events, Gc.minor_words () -. w0, !check)
  in
  ignore (exec ~record_trace:false);
  let off_wall, off_busy, off_events, off_words, _ = exec ~record_trace:false in
  let on_wall, _, _, _, check = exec ~record_trace:true in
  let r = float_of_int runs in
  [
    ("engine.events_per_s", num (float_of_int off_events /. off_wall));
    ("engine.handler_frac", num (off_busy /. off_wall));
    ("engine.alloc_words_per_event", num (off_words /. float_of_int off_events));
    ("trace.overhead_frac", num ((on_wall -. off_wall) /. off_wall));
    ("invariants.check_us_per_run", num (1e6 *. check /. r));
  ]

let fuzz_layer ~runs =
  let gen, gen_s =
    time (fun () ->
        List.init runs (fun index -> Harness.Fuzz.generate ~seed:fuzz_seed ~index ()))
  in
  let failures, exec_s =
    time (fun () ->
        List.fold_left
          (fun acc fs ->
            let o = Harness.Fuzz.run_one fs in
            if o.Harness.Fuzz.violations = [] then acc else acc + 1)
          0 gen)
  in
  if failures > 0 then failwith "fuzz failures in the traced layer run";
  let r = float_of_int runs in
  [
    ("fuzz.generate_us_per_run", num (1e6 *. gen_s /. r));
    ("fuzz.exec_us_per_run", num (1e6 *. exec_s /. r));
  ]

let tables_layer ~domains ~pool_domains =
  let per_id =
    Harness.Measure.with_domains domains @@ fun () ->
    List.map
      (fun id ->
        match Harness.Experiments.by_id id with
        | Some f ->
            let _, s =
              time (fun () ->
                  ignore (f ~speed:Harness.Experiments.Quick () : Harness.Report.table))
            in
            ("tables." ^ id ^ "_s", num s)
        | None -> failwith ("unknown experiment " ^ id))
      Harness.Experiments.ids
  in
  let on k =
    snd
      (time (fun () ->
           Harness.Measure.with_domains k (fun () ->
               Harness.Experiments.all ~speed:Harness.Experiments.Quick ())))
  in
  let serial = on 1 in
  let pooled = on pool_domains in
  per_id @ [ ("pool.speedup", num (serial /. pooled)) ]

let mcheck_layer () =
  let succ = ref 0. and fp = ref 0. and props = ref 0. in
  let timed acc f x =
    let t0 = now () in
    let r = f x in
    acc := !acc +. (now () -. t0);
    r
  in
  let o, wall =
    time (fun () ->
        Mcheck.Explore.run ~domains:1
          ~initial:(Mcheck.Model.initial mcheck_cfg)
          ~successors:(timed succ (Mcheck.Model.successors mcheck_cfg))
          ~fingerprint:(timed fp Mcheck.Model.fingerprint)
          ~key:Mcheck.Model.key
          ~properties:
            (List.map
               (fun (name, p) -> (name, timed props p))
               (Mcheck.Explorer.all_properties mcheck_cfg))
          ~max_depth:mcheck_depth ~max_states:1_000_000 ())
  in
  let states = float_of_int o.Mcheck.Explore.states in
  let edges = float_of_int o.Mcheck.Explore.transitions in
  [
    ("mcheck.successors_ns_per_state", num (1e9 *. !succ /. states));
    ("mcheck.fingerprint_ns_per_state", num (1e9 *. !fp /. states));
    ("mcheck.properties_ns_per_state", num (1e9 *. !props /. states));
    ( "mcheck.visited_ns_per_edge",
      num (1e9 *. (wall -. !succ -. !fp -. !props) /. edges) );
    ("mcheck.new_state_ratio", num (states /. edges));
  ]

(* the suite runs on one domain, recorded in the output; only the pool
   speedup compares it with up to two domains, as many as the machine
   offers *)
let domains = 1

let pool_domains = Stdlib.min 2 (Domain.recommended_domain_count ())

(* runs of the fuzz campaign, plain and traced *)
let fuzz_runs = 400

let main ~flag =
  let fields =
    if flag "trace" then
      Harness.Measure.with_domains domains (fun () ->
          engine_layer ~runs:200 @ fuzz_layer ~runs:fuzz_runs @ mcheck_layer ())
      @ tables_layer ~domains ~pool_domains
    else Harness.Measure.with_domains domains (fun () -> untraced ~fuzz_runs)
  in
  print_endline (json_fields (("domains", string_of_int domains) :: fields))
