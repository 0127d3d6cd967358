type outcome = {
  violations : Invariants.violation list;
  decided : int;
  events : int;
  msgs_sent : int;
  msgs_delivered : int;
  msgs_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Liveness deadlines                                                  *)
(* ------------------------------------------------------------------ *)

let ever_faulty (f : Sim.Fault.t) p =
  List.mem p f.Sim.Fault.initially_down
  || List.exists (fun e -> e.Sim.Fault.proc = p) f.Sim.Fault.events

let last_restart (f : Sim.Fault.t) p =
  List.fold_left
    (fun acc e ->
      match e.Sim.Fault.action with
      | Sim.Fault.Restart when e.Sim.Fault.proc = p -> (
          match acc with
          | Some t when t >= e.Sim.Fault.at -> acc
          | _ -> Some e.Sim.Fault.at)
      | _ -> acc)
    None f.Sim.Fault.events

let liveness_budget (fs : Fuzz_scenario.t) =
  (Protocols.entry fs.protocol).liveness_budget ~n:fs.n
    ~injections:(List.length fs.injections)
  *. fs.delta

let liveness_violations (fs : Fuzz_scenario.t) decision_times =
  let budget = liveness_budget fs in
  let covers_restarts = (Protocols.entry fs.protocol).covers_restarts in
  List.filter_map
    (fun p ->
      let faulty = ever_faulty fs.faults p in
      if not (Sim.Fault.alive_at fs.faults ~proc:p ~time:fs.horizon) then None
      else if faulty && not covers_restarts then None
      else
        let start =
          if faulty then
            match last_restart fs.faults p with
            | Some t -> Float.max fs.ts t
            | None -> fs.ts
          else fs.ts
        in
        let deadline = start +. budget in
        if deadline > fs.horizon then None
        else
          match decision_times.(p) with
          | Some _ -> None
          | None ->
              Some
                {
                  Invariants.check = "liveness";
                  detail =
                    Printf.sprintf
                      "process %d alive at horizon %g undecided past its \
                       deadline %g (start %g + budget %g)"
                      p fs.horizon deadline start budget;
                })
    (List.init fs.n Fun.id)

(* ------------------------------------------------------------------ *)
(* Running one scenario                                                *)
(* ------------------------------------------------------------------ *)

let outcome_of_run (fs : Fuzz_scenario.t) (report : Invariants.report)
    (r : _ Sim.Engine.run_result) =
  {
    violations =
      report.Invariants.violations @ liveness_violations fs r.decision_times;
    decided =
      Array.fold_left
        (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
        0 r.Sim.Engine.decision_values;
    events = r.Sim.Engine.events_processed;
    msgs_sent = r.Sim.Engine.messages_sent;
    msgs_delivered = r.Sim.Engine.messages_delivered;
    msgs_dropped = r.Sim.Engine.messages_dropped;
  }

let run_one (fs : Fuzz_scenario.t) =
  (match Fuzz_scenario.validate fs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fuzz.run_one: " ^ msg));
  let sc = Fuzz_scenario.to_scenario fs in
  match
    (Protocols.entry fs.protocol).build ~n:fs.n ~delta:fs.delta ~ts:fs.ts
      ~rho:fs.rho ~faults:fs.faults ()
  with
  | Protocols.Packed { protocol; inject; timer_bounds } ->
      let injections =
        match inject with
        | None -> []
        | Some inject ->
            List.map
              (fun { Fuzz_scenario.at; src; dst; session } ->
                (at, src, dst, inject ~src ~session))
              fs.injections
      in
      let r = Sim.Engine.run ~injections sc protocol in
      let report = Invariants.check_run ?timer_bounds r in
      (* Nothing below reads the trace: its storage goes back to this
         domain's spare for the next run. *)
      Sim.Trace.release r.Sim.Engine.trace;
      outcome_of_run fs report r

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let default_protocols =
  List.filter_map
    (fun (e : Protocols.entry) -> if e.correct then Some e.protocol else None)
    Protocols.table

(* Scenario [index] draws from a splitmix64 stream whose seed is offset
   by a golden-ratio multiple of the index, the standard way to derive
   independent splitmix streams. *)
let index_rng ~seed ~index =
  Sim.Prng.create
    (Int64.add seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1))))

let gen_victims rng ~n =
  let max_faulty = n - Consensus.Quorum.majority n in
  let k = Sim.Prng.int rng (max_faulty + 1) in
  let procs = Array.init n Fun.id in
  Sim.Prng.shuffle rng procs;
  Array.to_list (Array.sub procs 0 k)

let gen_faults rng ~ts ~delta ~victims =
  List.fold_left
    (fun acc v ->
      match Sim.Prng.int rng 4 with
      | 0 ->
          Sim.Fault.union acc
            { Sim.Fault.initially_down = [ v ]; events = [] }
      | 1 ->
          let restart_at = Sim.Prng.float rng (ts +. (10. *. delta)) in
          Sim.Fault.union acc
            {
              Sim.Fault.initially_down = [ v ];
              events = [ Sim.Fault.restart ~at:restart_at v ];
            }
      | 2 ->
          let crash_at = Sim.Prng.float rng ts in
          Sim.Fault.union acc
            { Sim.Fault.initially_down = []; events = [ Sim.Fault.crash ~at:crash_at v ] }
      | _ ->
          let crash_at = Sim.Prng.float rng ts in
          let restart_at =
            crash_at
            +. Sim.Prng.float_range rng (delta /. 2.)
                 (ts -. crash_at +. (10. *. delta))
          in
          Sim.Fault.union acc
            (Sim.Fault.crash_then_restart ~crash_at ~restart_at v))
    Sim.Fault.none victims

let gen_network rng ~n ~delta =
  let base =
    match Sim.Prng.int rng 8 with
    | 0 -> Sim.Network_spec.Always_synchronous
    | 1 -> Sim.Network_spec.Silent_until_ts
    | 2 -> Sim.Network_spec.Deterministic_after_ts
    | 3 ->
        (* split the processes into two nonempty pre-ts islands *)
        let cut = 1 + Sim.Prng.int rng (n - 1) in
        Sim.Network_spec.Partitioned_until_ts
          [ List.init cut Fun.id; List.init (n - cut) (fun i -> cut + i) ]
    | _ ->
        Sim.Network_spec.Eventually_synchronous
          {
            pre_loss = Sim.Prng.float rng 1.0;
            pre_delay_max =
              (if Sim.Prng.bool rng 0.5 then
                 Some (Sim.Prng.float_range rng delta (8. *. delta))
               else None);
          }
  in
  let spec =
    if Sim.Prng.bool rng 0.3 then
      Sim.Network_spec.With_duplication
        { prob = Sim.Prng.float rng 0.3; base }
    else base
  in
  if Sim.Prng.bool rng 0.3 then
    Sim.Network_spec.With_reordering
      { window = Sim.Prng.float rng (4. *. delta); base = spec }
  else spec

(* Obsolete phase 1a injections where the model admits them: session 1
   against the gated algorithm (a failed process can be at most one
   session ahead), anomalously high sessions against the ungated
   ablation and traditional Paxos — the paper's attack.  Messages sent
   before [ts] may be delivered at any later instant, so besides a
   scatter of one-offs around [ts] the generator also produces long
   periodic trains of escalating sessions (the A1 fan): each arrival
   outranks the receiver's ballot and re-arms its session timer, which
   the ungated algorithm cannot absorb. *)
let gen_injections rng (protocol : Fuzz_scenario.protocol) ~n ~ts ~delta =
  if
    (not (Protocols.entry protocol).takes_injections)
    || Sim.Prng.bool rng 0.4
  then []
  else
    let session_for i =
      match protocol with
      | Fuzz_scenario.Modified_paxos -> 1
      | _ -> 1000 * (i + 1)
    in
    if Sim.Prng.bool rng 0.5 then
      let steps = 4 + Sim.Prng.int rng 25 in
      let spacing = Sim.Prng.float_range rng (2. *. delta) (4. *. delta) in
      let src = Sim.Prng.int rng n in
      List.concat
        (List.init steps (fun i ->
             let at = ts +. (spacing *. float_of_int i) in
             List.init n (fun dst ->
                 { Fuzz_scenario.at; src; dst; session = session_for i })))
    else
      let count = 1 + Sim.Prng.int rng 8 in
      List.init count (fun i ->
          let at =
            Float.max 0.
              (Sim.Prng.float_range rng (ts -. (2. *. delta))
                 (ts +. (4. *. delta)))
          in
          let src = Sim.Prng.int rng n in
          let dst = Sim.Prng.int rng n in
          { Fuzz_scenario.at; src; dst; session = session_for i })

let generate ?protocol ~seed ~index () =
  let rng = index_rng ~seed ~index in
  let protocol =
    match protocol with
    | Some p -> p
    | None -> Sim.Prng.pick rng default_protocols
  in
  let n = 3 + Sim.Prng.int rng 5 in
  let delta = Sim.Prng.pick rng [ 0.005; 0.01; 0.02 ] in
  let ts =
    if Sim.Prng.bool rng 0.2 then 0.
    else Sim.Prng.float_range rng delta (20. *. delta)
  in
  let rho = if Sim.Prng.bool rng 0.3 then Sim.Prng.float rng 0.05 else 0. in
  let network = gen_network rng ~n ~delta in
  let victims = gen_victims rng ~n in
  let faults = gen_faults rng ~ts ~delta ~victims in
  let proposals = Array.init n (fun _ -> Sim.Prng.int rng 4) in
  let injections = gen_injections rng protocol ~n ~ts ~delta in
  let fs =
    {
      Fuzz_scenario.name = Printf.sprintf "fuzz-%Ld-%d" seed index;
      protocol;
      n;
      ts;
      delta;
      rho;
      seed = Sim.Prng.next_int64 rng;
      horizon = 0.;
      network;
      faults;
      proposals;
      injections;
    }
  in
  let last_fault =
    List.fold_left
      (fun acc e -> Float.max acc e.Sim.Fault.at)
      ts faults.Sim.Fault.events
  in
  let horizon = last_fault +. liveness_budget fs +. (10. *. delta) in
  let fs = { fs with horizon } in
  match Fuzz_scenario.validate fs with
  | Ok () -> fs
  | Error msg ->
      invalid_arg
        (Printf.sprintf "Fuzz.generate produced an invalid scenario (%s): %s"
           fs.Fuzz_scenario.name msg)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

type shrink_result = {
  shrunk : Fuzz_scenario.t;
  steps : int;
  tries : int;
}

(* [xs] with one aligned chunk removed, largest chunks first: the
   whole list, halves, quarters, ..., singletons. *)
let chunk_removals xs =
  let arr = Array.of_list xs in
  let len = Array.length arr in
  if len = 0 then []
  else
    let without start size =
      Array.to_list arr |> List.filteri (fun i _ -> i < start || i >= start + size)
    in
    let rec sizes s acc = if s <= 0 then List.rev acc else sizes (s / 2) (s :: acc) in
    List.concat_map
      (fun size ->
        let rec starts s acc =
          if s >= len then List.rev acc else starts (s + size) (s :: acc)
        in
        List.map (fun s -> without s size) (starts 0 []))
      (sizes len [])

(* Candidate scenarios strictly below [fs] in {!Fuzz_scenario.size},
   most aggressive first. *)
let shrink_candidates (fs : Fuzz_scenario.t) =
  let with_injections injections = { fs with Fuzz_scenario.injections } in
  let with_faults faults = { fs with Fuzz_scenario.faults } in
  let injections = List.map with_injections (chunk_removals fs.injections) in
  let events = fs.faults.Sim.Fault.events in
  let down = fs.faults.Sim.Fault.initially_down in
  let victims =
    List.sort_uniq Int.compare
      (down @ List.map (fun e -> e.Sim.Fault.proc) events)
  in
  (* whole fault footprint of one process at a time *)
  let per_proc =
    List.map
      (fun p ->
        with_faults
          {
            Sim.Fault.initially_down = List.filter (fun q -> q <> p) down;
            events = List.filter (fun e -> e.Sim.Fault.proc <> p) events;
          })
      victims
  in
  let single_events =
    List.mapi
      (fun i _ ->
        with_faults
          {
            fs.faults with
            Sim.Fault.events = List.filteri (fun j _ -> j <> i) events;
          })
      events
  in
  let single_down =
    List.map
      (fun p ->
        with_faults
          {
            fs.faults with
            Sim.Fault.initially_down = List.filter (fun q -> q <> p) down;
          })
      down
  in
  let networks =
    List.map
      (fun network -> { fs with Fuzz_scenario.network })
      (Sim.Network_spec.shrink fs.network)
  in
  let drift = if fs.rho > 0. then [ { fs with Fuzz_scenario.rho = 0. } ] else [] in
  injections @ per_proc @ single_events @ single_down @ networks @ drift

let shrink ?(max_tries = 500) fs ~check =
  let tries = ref 0 in
  let steps = ref 0 in
  let still_fails cur cand =
    !tries < max_tries
    && Fuzz_scenario.size cand < Fuzz_scenario.size cur
    &&
    match Fuzz_scenario.validate cand with
    | Error _ -> false
    | Ok () ->
        incr tries;
        List.exists
          (fun v -> String.equal v.Invariants.check check)
          (run_one cand).violations
  in
  let rec fixpoint cur =
    if !tries >= max_tries then cur
    else
      match List.find_opt (still_fails cur) (shrink_candidates cur) with
      | Some cand ->
          incr steps;
          fixpoint cand
      | None -> cur
  in
  let shrunk = fixpoint fs in
  { shrunk; steps = !steps; tries = !tries }

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  index : int;
  check : string;
  detail : string;
  scenario : Fuzz_scenario.t;
  original_size : int;
  shrunk_size : int;
  shrink_tries : int;
}

type summary = {
  seed : int64;
  budget : int;
  protocol : Fuzz_scenario.protocol option;
  runs : int;
  failures : int;
  by_check : (string * int) list;
  counterexamples : counterexample list;
  total_events : int;
  total_msgs : int;
  total_decided : int;
  total_shrink_tries : int;
}

let run_index ?protocol ~seed index =
  let fs = generate ?protocol ~seed ~index () in
  let o = run_one fs in
  match o.violations with
  | [] -> (o, None)
  | v :: _ ->
      let sr = shrink fs ~check:v.Invariants.check in
      ( o,
        Some
          {
            index;
            check = v.Invariants.check;
            detail = v.Invariants.detail;
            scenario = sr.shrunk;
            original_size = Fuzz_scenario.size fs;
            shrunk_size = Fuzz_scenario.size sr.shrunk;
            shrink_tries = sr.tries;
          } )

let campaign ?protocol ~budget ~seed () =
  if budget < 0 then invalid_arg "Fuzz.campaign: negative budget";
  let results =
    Measure.par_map (run_index ?protocol ~seed) (List.init budget Fun.id)
  in
  let counterexamples = List.filter_map snd results in
  let bump acc check =
    match List.assoc_opt check acc with
    | Some k -> (check, k + 1) :: List.remove_assoc check acc
    | None -> (check, 1) :: acc
  in
  let by_check =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.fold_left (fun acc cx -> bump acc cx.check) [] counterexamples)
  in
  let total f = List.fold_left (fun acc (o, _) -> acc + f o) 0 results in
  {
    seed;
    budget;
    protocol;
    runs = List.length results;
    failures = List.length counterexamples;
    by_check;
    counterexamples;
    total_events = total (fun o -> o.events);
    total_msgs = total (fun o -> o.msgs_sent);
    total_decided = total (fun o -> o.decided);
    total_shrink_tries =
      List.fold_left (fun acc cx -> acc + cx.shrink_tries) 0 counterexamples;
  }

let pp_summary fmt s =
  Format.fprintf fmt "fuzz: budget=%d seed=%Ld protocol=%s@." s.budget s.seed
    (match s.protocol with
    | Some p -> Protocols.name p
    | None -> "mixed");
  Format.fprintf fmt
    "runs=%d failures=%d events=%d msgs=%d decided=%d shrink_tries=%d@."
    s.runs s.failures s.total_events s.total_msgs s.total_decided
    s.total_shrink_tries;
  List.iter
    (fun (check, k) -> Format.fprintf fmt "  %s: %d@." check k)
    s.by_check;
  List.iter
    (fun cx ->
      Format.fprintf fmt "counterexample [%d] %s (size %d -> %d): %a@."
        cx.index cx.check cx.original_size cx.shrunk_size Fuzz_scenario.pp
        cx.scenario)
    s.counterexamples

let register_metrics reg s =
  Sim.Registry.inc ~by:s.runs reg "fuzz_runs";
  Sim.Registry.inc ~by:s.failures reg "fuzz_failures";
  Sim.Registry.inc ~by:(List.length s.counterexamples) reg
    "fuzz_counterexamples";
  Sim.Registry.inc ~by:s.total_shrink_tries reg "fuzz_shrink_tries";
  Sim.Registry.inc ~by:s.total_events reg "fuzz_events";
  Sim.Registry.inc ~by:s.total_msgs reg "fuzz_msgs"

(* ------------------------------------------------------------------ *)
(* Corpus files                                                        *)
(* ------------------------------------------------------------------ *)

type corpus_entry = {
  format : string;
  check : string;
  detail : string;
  scenario : Fuzz_scenario.t;
}

let corpus_format = "consensus-fuzz-corpus/1"

let entry_of_counterexample (cx : counterexample) =
  {
    format = corpus_format;
    check = cx.check;
    detail = cx.detail;
    scenario = cx.scenario;
  }

let entry_to_json e =
  Sim.Json.Obj
    [
      ("format", Sim.Json.Str e.format);
      ("check", Sim.Json.Str e.check);
      ("detail", Sim.Json.Str e.detail);
      ("scenario", Fuzz_scenario.to_json e.scenario);
    ]

let ( let* ) = Result.bind

let entry_of_json j =
  let* format = Result.bind (Sim.Json.member "format" j) Sim.Json.to_string in
  if not (String.equal format corpus_format) then
    Error (Printf.sprintf "unsupported corpus format %S" format)
  else
    let* check = Result.bind (Sim.Json.member "check" j) Sim.Json.to_string in
    let* detail =
      Result.bind (Sim.Json.member "detail" j) Sim.Json.to_string
    in
    let* scenario =
      Result.bind (Sim.Json.member "scenario" j) Fuzz_scenario.of_json
    in
    Ok { format; check; detail; scenario }

let entry_filename e =
  Printf.sprintf "%s-%s.json" e.check e.scenario.Fuzz_scenario.name

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then (
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ())

let save_entry ~dir e =
  ensure_dir dir;
  let path = Filename.concat dir (entry_filename e) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Sim.Json.print_pretty (entry_to_json e));
      output_char oc '\n');
  path

let load_entry path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents ->
      let* j = Sim.Json.parse contents in
      entry_of_json j

let replay e =
  let o = run_one e.scenario in
  if List.exists (fun v -> String.equal v.Invariants.check e.check) o.violations
  then Ok o
  else
    let saw =
      match o.violations with
      | [] -> "no violation"
      | vs ->
          String.concat ", "
            (List.map (fun v -> v.Invariants.check) vs)
    in
    Error (saw, o)
