type speed = Quick | Full

(* All experiments share one parameterization: delta = 10ms, stabilization
   after 50 delta of arbitrary behaviour. *)
let delta = 0.01

let ts = 0.5

let sizes = function Quick -> [ 3; 5; 9; 17 ] | Full -> [ 3; 5; 9; 17; 33; 65 ]

let seeds = function Quick -> 3 | Full -> 10

let seed_base = 42L

(* Safety violations and run metrics are collected per row.  Rows fan
   out across domains ({!Measure.par_map}), so each row body receives a
   private collector; {!par_collect} merges notes and registries in row
   order, which keeps the rendered tables byte-identical whatever
   SIM_DOMAINS is (registry merges are commutative sums anyway). *)
type obs = { notes : string list ref; reg : Sim.Registry.t }

(* Process-wide metrics accumulator, fed by every [par_collect] so bench
   can dump one aggregate registry into BENCH_RESULTS.json.  Experiment
   bodies run on worker domains, hence the mutex. *)
let collector = Sim.Registry.create ()

let collector_mu = Mutex.create ()

let reset_metrics () =
  Mutex.protect collector_mu (fun () -> Sim.Registry.reset collector)

let metrics_snapshot () =
  Mutex.protect collector_mu (fun () ->
      let c = Sim.Registry.create () in
      Sim.Registry.merge_into ~dst:c collector;
      c)

(* Fold one run's counters/histograms into the row's registry.  Called
   by [check]; experiments that skip the generic safety check (SMR
   checksum decisions, leader election) call it directly. *)
let record_metrics obs r =
  Sim.Registry.merge_into ~dst:obs.reg r.Sim.Engine.metrics

let check obs r =
  record_metrics obs r;
  match Measure.check_safety r with
  | Ok () -> ()
  | Error msg ->
      obs.notes :=
        Printf.sprintf "%s (scenario %s, seed %Ld)" msg
          r.Sim.Engine.scenario.Sim.Scenario.name
          r.Sim.Engine.scenario.Sim.Scenario.seed
        :: !(obs.notes)

(* [par_collect xs f] maps [f] over [xs] on the sweep pool, giving each
   element a fresh observability collector; returns the results in input
   order, the notes merged in input order (each element's notes in
   occurrence order), and the per-element registries merged into one. *)
let par_collect xs f =
  let triples =
    Measure.par_map
      (fun x ->
        let obs = { notes = ref []; reg = Sim.Registry.create () } in
        let y = f obs x in
        (y, List.rev !(obs.notes), obs.reg))
      xs
  in
  let merged = Sim.Registry.create () in
  List.iter
    (fun (_, _, reg) -> Sim.Registry.merge_into ~dst:merged reg)
    triples;
  Mutex.protect collector_mu (fun () ->
      Sim.Registry.merge_into ~dst:collector merged);
  ( List.map (fun (y, _, _) -> y) triples,
    List.concat_map (fun (_, ns, _) -> ns) triples,
    merged )

(* One deterministic summary line per table, from the table's merged
   registry.  Only sums and bucket quantiles appear, so the line is
   byte-identical across SIM_DOMAINS settings. *)
let metrics_note reg =
  let c name = Sim.Registry.counter_total reg name in
  let q p =
    match Sim.Registry.quantile reg "decision_latency_delta" p with
    | Some v -> Printf.sprintf "%gd" v
    | None -> "n/a"
  in
  let protocol_counters =
    List.filter_map
      (fun (name, label) ->
        let v = c name in
        if v = 0 then None else Some (Printf.sprintf "%s %d" label v))
      [
        ("phase1_starts", "phase-1 starts");
        ("session_entries", "session entries");
      ]
  in
  Printf.sprintf
    "observability: %d runs; msgs sent/delivered/dropped %d/%d/%d%s; \
     decision latency p50<=%s p95<=%s"
    (c "runs") (c "msgs_sent") (c "msgs_delivered") (c "msgs_dropped")
    (match protocol_counters with
    | [] -> ""
    | cs -> "; " ^ String.concat ", " cs)
    (q 0.5) (q 0.95)

let drain_notes ~reg ~pass_note = function
  | [] -> [ pass_note; metrics_note reg ]
  | notes ->
      ("SAFETY VIOLATIONS DETECTED:" :: notes)
      @ [ pass_note; metrics_note reg ]

(* Every [*_run] function below builds one engine run of its table: the
   scenario, protocol, faults, injections and horizon of the row named
   by its arguments, for one seed.  The tables, {!headline}, the traced
   replays and bench's single runs all go through them. *)

let mp_cfg n = Dgl.Config.make ~n ~delta ()

(* ------------------------------------------------------------------ *)
(* E1: modified Paxos decides in O(delta), independent of N            *)
(* ------------------------------------------------------------------ *)

(* E1's two adversaries: the deterministic net with session-1 obsolete
   ballots from the faulty minority, or ([~lossy]) the 50%-loss random
   pre-TS net with no injections. *)
let e1_run ~n ~lossy ~record_trace seed =
  let victims = Adversaries.faulty_minority ~n in
  let network, injections =
    if lossy then (Sim.Network.eventually_synchronous (), [])
    else
      ( Sim.Network.deterministic_after_ts,
        Adversaries.dgl_session1_injections ~n ~from:ts ~spacing:(2. *. delta)
          ~victims )
  in
  let sc =
    Sim.Scenario.make ~name:"e1" ~n ~ts ~delta ~seed ~network
      ~faults:(Sim.Fault.make ~initially_down:victims [])
      ~record_trace ()
  in
  Sim.Engine.run ~injections sc (Dgl.Modified_paxos.protocol (mp_cfg n))

(* Modified Paxos decides by [TS + eps + 3 tau + 5 delta], independent
   of [N] (Section 4, proof step 8). *)
let e1 ?(speed = Quick) () =
  let bound = Dgl.Config.decision_bound (mp_cfg 3) /. delta in
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let live = Measure.procs ~n ~except:victims () in
        let over ~lossy =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = e1_run ~n ~lossy ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r ~procs:live ~from_time:ts ~delta)
        in
        let lat_det = over ~lossy:false in
        let lat_rand = over ~lossy:true in
        let all = lat_det @ lat_rand in
        let worst = List.fold_left Float.max 0. all in
        [
          string_of_int n;
          string_of_int (List.length victims);
          Report.cell_f (Sim.Metrics.mean all);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E1" ~title:"Modified Paxos: decision latency after TS"
    ~claim:
      "every process nonfaulty at TS decides by TS + eps + 3*tau + 5*delta, \
       independent of N (Sec. 4)"
    ~columns:[ "n"; "faulty"; "mean(d)"; "worst(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "adversaries: faulty minority + injected session-1 obsolete \
            ballots (deterministic net), and 50%-loss random pre-TS net; \
            latency in units of delta"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E2: traditional Paxos, O(N delta) under obsolete ballots            *)
(* ------------------------------------------------------------------ *)

let e2_run ~n ~record_trace seed =
  let victims = Adversaries.faulty_minority ~n in
  let faults = Sim.Fault.make ~initially_down:victims [] in
  let t0 =
    Adversaries.traditional_first_start ~ts ~theta:(2. *. delta)
      ~stabilize_delay:delta
  in
  let sc =
    Sim.Scenario.make ~name:"e2" ~n ~ts ~delta ~seed
      ~network:Sim.Network.deterministic_after_ts ~faults ~record_trace ()
  in
  let oracle = Baselines.Leader_election.make ~n ~ts ~delta ~faults () in
  Sim.Engine.run
    ~injections:
      (Adversaries.paxos_aligned_injections ~n ~delta ~t0 ~leader:0 ~victims)
    sc
    (Baselines.Traditional_paxos.protocol ~n ~delta ~oracle ())

(* Traditional Paxos is delayed [O(N delta)] by obsolete high ballots
   (Section 2). *)
let e2 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let live = Measure.procs ~n ~except:victims () in
        let r = e2_run ~n ~record_trace:false seed_base in
        check obs r;
        let worst = Measure.worst_latency r ~procs:live ~from_time:ts ~delta in
        let k = List.length victims in
        [
          string_of_int n;
          string_of_int k;
          Report.cell_latency worst;
          Report.cell_f (worst /. float_of_int k);
        ])
  in
  Report.make ~id:"E2"
    ~title:"Traditional Paxos: obsolete high ballots cost O(N*delta)"
    ~claim:
      "each of up to ceil(N/2)-1 obsolete ballots forces another Start \
       Phase 1 round trip, so deciding can take TS + O(N*delta) (Sec. 2)"
    ~columns:[ "n"; "obsolete"; "worst(d)"; "delta per ballot" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "deterministic-delay net; ballot i lands mid-phase-2 of the \
            leader's retry i; expect ~4 delta per obsolete ballot \
            (linear), vs E1's flat bound"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E3: rotating coordinator, O(N delta) with dead coordinators         *)
(* ------------------------------------------------------------------ *)

(* The [⌈N/2⌉ - 1] lowest ids: E3's first coordinators, and the ids a
   lowest-id-alive elector would trust in E11. *)
let dead_low_ids n = List.init (n - Consensus.Quorum.majority n) Fun.id

let e3_run ~n ~record_trace seed =
  let sc =
    Sim.Scenario.make ~name:"e3" ~n ~ts ~delta ~seed
      ~network:Sim.Network.silent_until_ts
      ~faults:(Sim.Fault.make ~initially_down:(dead_low_ids n) [])
      ~record_trace ()
  in
  Sim.Engine.run sc (Baselines.Rotating_coordinator.protocol ~n ~delta ())

(* Rotating-coordinator round-based consensus needs [O(N delta)] when
   the [⌈N/2⌉-1] first coordinators are faulty (Section 3). *)
let e3 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let dead = dead_low_ids n in
        let f = List.length dead in
        let live = Measure.procs ~n ~except:dead () in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = e3_run ~n ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r ~procs:live ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          string_of_int n;
          string_of_int f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f (worst /. float_of_int f);
        ])
  in
  Report.make ~id:"E3"
    ~title:"Rotating coordinator: dead coordinators cost O(N*delta)"
    ~claim:
      "rounds 0..ceil(N/2)-2 have faulty coordinators and each burns one \
       O(delta) timeout before the first live coordinator decides (Sec. 3)"
    ~columns:[ "n"; "dead coords"; "mean(d)"; "worst(d)"; "delta per round" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "the ceil(N/2)-1 lowest-id processes are down; round timeout = \
            4 delta, so expect ~4 delta per dead coordinator"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E4: restart after TS decides within O(delta) of the restart         *)
(* ------------------------------------------------------------------ *)

(* Process 2 crashes before TS and restarts [offset] deltas after it. *)
let e4_restart_at offset = ts +. (offset *. delta)

let e4_run ~offset ~record_trace seed =
  let n = 5 in
  let restart_at = e4_restart_at offset in
  let sc =
    Sim.Scenario.make ~name:"e4" ~n ~ts ~delta ~seed
      ~network:(Sim.Network.eventually_synchronous ())
      ~faults:(Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.) ~restart_at 2)
      ~horizon:(restart_at +. (200. *. delta))
      ~record_trace ()
  in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol (mp_cfg n))

(* A process that restarts after [TS] decides within [O(delta)] of its
   restart (Section 4, "Process Restarts"). *)
let e4 ?(speed = Quick) () =
  let bound = Dgl.Config.restart_bound (mp_cfg 5) /. delta in
  let offsets = [ 10.; 20.; 40.; 80. ] in
  let rows, notes, reg =
    par_collect offsets (fun obs offset ->
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = e4_run ~offset ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r ~procs:[ 2 ]
                ~from_time:(e4_restart_at offset) ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "TS + %.0f delta" offset;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E4" ~title:"Modified Paxos: decision latency after restart"
    ~claim:
      "a process restarting at T' > TS decides within O(delta) of T': a new \
       session starts every tau and completes within 5 delta (Sec. 4)"
    ~columns:[ "restart at"; "mean(d)"; "worst(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; process 2 crashes before TS and restarts at the given \
            offset; latency measured from the restart instant; decision \
            broadcast OFF (the paper's optional optimization would shrink \
            this to ~1 delta)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E5: modified B-Consensus decides in O(delta), independent of N      *)
(* ------------------------------------------------------------------ *)

(* E5's two pre-TS networks: silent, or ([~lossy]) 50%-loss random. *)
let e5_run ~n ~lossy ~record_trace seed =
  let sc =
    Sim.Scenario.make ~name:"e5" ~n ~ts ~delta ~seed
      ~network:
        (if lossy then Sim.Network.eventually_synchronous ()
         else Sim.Network.silent_until_ts)
      ~faults:
        (Sim.Fault.make ~initially_down:(Adversaries.faulty_minority ~n) [])
      ~record_trace ()
  in
  Sim.Engine.run sc
    (Bconsensus.Modified_b_consensus.protocol ~n ~delta ~rho:0. ())

(* Modified B-Consensus also decides within [O(delta)] of [TS],
   "about the same" as modified Paxos (Section 5). *)
let e5 ?(speed = Quick) () =
  let dgl_ref = Dgl.Config.decision_bound (mp_cfg 3) /. delta in
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let live =
          Measure.procs ~n ~except:(Adversaries.faulty_minority ~n) ()
        in
        let run ~lossy seed =
          let r = e5_run ~n ~lossy ~record_trace:false seed in
          check obs r;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base
            (run ~lossy:false)
          @ Measure.over_seeds ~seeds:(seeds speed) ~base:7777L
              (run ~lossy:true)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          string_of_int n;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f dgl_ref;
        ])
  in
  Report.make ~id:"E5"
    ~title:"Modified B-Consensus: decision latency after TS"
    ~claim:
      "the oracle-based leaderless algorithm also decides within O(delta) \
       of TS; \"the actual maximum delay is about the same as for the \
       modified Paxos algorithm\" (Sec. 5)"
    ~columns:[ "n"; "mean(d)"; "worst(d)"; "mod-Paxos bound(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "faulty minority down; both silent and 50%-loss pre-TS networks; \
            2 delta oracle hold-back; flat in n like E1"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E6: epsilon trade-off, messages vs latency                          *)
(* ------------------------------------------------------------------ *)

let e6_cfg eps_factor =
  let epsilon = eps_factor *. delta in
  let sigma = Float.max (5. *. delta) (4. *. delta +. epsilon) in
  Dgl.Config.make ~n:5 ~delta ~epsilon ~sigma ()

let e6_window = 30. *. delta

(* The latency run (silent until TS), or with [~rate] the message-rate
   run: stable from time 0 and kept running past the decision for two
   {!e6_window}s; the table reads its rate from the trace. *)
let e6_run ~eps_factor ~rate ~record_trace seed =
  let n = 5 in
  let sc =
    if rate then
      Sim.Scenario.make ~name:"e6rate" ~n ~ts:0. ~delta ~seed
        ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
        ~record_trace ~horizon:(2. *. e6_window) ()
    else
      Sim.Scenario.make ~name:"e6lat" ~n ~ts ~delta ~seed
        ~network:Sim.Network.silent_until_ts
        ~horizon:(ts +. (300. *. delta))
        ~record_trace ()
  in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol (e6_cfg eps_factor))

(* Message-complexity vs decision-latency trade-off in [epsilon]
   (Section 4, "Reducing Message Complexity"). *)
let e6 ?(speed = Quick) () =
  let n = 5 in
  let eps_factors = [ 0.125; 0.25; 0.5; 1.; 2.; 4. ] in
  let rows, notes, reg =
    par_collect eps_factors (fun obs f ->
        let bound = Dgl.Config.decision_bound (e6_cfg f) /. delta in
        let run ~rate ~record_trace seed =
          let r = e6_run ~eps_factor:f ~rate ~record_trace seed in
          check obs r;
          r
        in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = run ~rate:false ~record_trace:false seed in
              Measure.worst_latency r
                ~procs:(Measure.procs ~n ())
                ~from_time:ts ~delta)
        in
        let rate =
          let r = run ~rate:true ~record_trace:true seed_base in
          let sends =
            Sim.Trace.sends_in_window r.Sim.Engine.trace ~lo:e6_window
              ~hi:(2. *. e6_window)
          in
          float_of_int sends /. (e6_window /. delta) /. float_of_int n
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.3f delta" f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_f rate;
        ])
  in
  Report.make ~id:"E6" ~title:"Epsilon trade-off: message rate vs latency"
    ~claim:
      "sending 1a messages less often (larger epsilon) reduces the \
       steady-state message rate but increases how long decisions take \
       after stabilization; \"frequent message sending is an unavoidable \
       cost of fast recovery\" (Sec. 4)"
    ~columns:
      [ "epsilon"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "msgs/proc/delta" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; latency under the silent-until-TS adversary; message rate \
            in the steady state of an already-stable run (algorithm keeps \
            executing after deciding, as in the paper's model)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E7: stable case, phase 1 pre-executed                               *)
(* ------------------------------------------------------------------ *)

let e7_run ~prestart ~record_trace seed =
  let n = 5 in
  let options = { Dgl.Modified_paxos.default_options with prestart } in
  let sc =
    Sim.Scenario.make
      ~name:(if prestart then "e7-prestarted" else "e7-cold")
      ~n ~ts:0. ~delta ~seed ~network:Sim.Network.deterministic_after_ts
      ~record_trace ()
  in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol ~options (mp_cfg n))

(* Stable case: with phase 1 pre-executed, decision within 3 message
   delays (Section 4, "Reducing Message Complexity"). *)
let e7 ?(speed = Quick) () =
  ignore speed;
  let lats, notes, reg =
    par_collect [ true; false ] (fun obs prestart ->
        let r = e7_run ~prestart ~record_trace:false seed_base in
        check obs r;
        Measure.worst_latency r ~procs:(Measure.procs ~n:5 ()) ~from_time:0.
          ~delta)
  in
  let pre, cold =
    match lats with [ a; b ] -> (a, b) | _ -> assert false
  in
  let rows =
    [
      [ "phase 1 pre-executed"; Report.cell_latency pre; "2 one-way delays" ];
      [ "cold start"; Report.cell_latency cold; "4 one-way delays + eps" ];
    ]
  in
  Report.make ~id:"E7" ~title:"Stable case: message delays to decide"
    ~claim:
      "with phase 1 executed in advance, all nonfaulty processes decide \
       within 3 message delays of the proposal (2a + 2b after the leader \
       holds the value; the third delay is the client's proposal reaching \
       the leader, which the simulation starts past) (Sec. 4)"
    ~columns:[ "mode"; "decision time (delta)"; "expected" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, stable from time 0, deterministic delta-delay network; \
            every message takes exactly delta, so message delays are \
            directly readable from the decision time"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E8: sigma sensitivity                                               *)
(* ------------------------------------------------------------------ *)

let e8_cfg sigma_factor =
  Dgl.Config.make ~n:5 ~delta ~sigma:(sigma_factor *. delta) ()

let e8_run ~sigma_factor ~record_trace seed =
  let sc =
    Sim.Scenario.make ~name:"e8" ~n:5 ~ts ~delta ~seed
      ~network:Sim.Network.silent_until_ts ~record_trace ()
  in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol (e8_cfg sigma_factor))

(* Sensitivity to the session-timeout upper bound [sigma] (enters the
   bound through [tau = max (2 delta + eps) sigma]). *)
let e8 ?(speed = Quick) () =
  let sigmas = [ 4.05; 5.; 6.; 8.; 10. ] in
  let rows, notes, reg =
    par_collect sigmas (fun obs s ->
        let bound = Dgl.Config.decision_bound (e8_cfg s) /. delta in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = e8_run ~sigma_factor:s ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n:5 ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.2f delta" s;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E8" ~title:"Sigma sensitivity"
    ~claim:
      "the decision bound eps + 3*tau + 5*delta grows with sigma through \
       tau = max(2*delta + eps, sigma); taking sigma ~ 4*delta gives the \
       paper's ~17*delta figure (Sec. 4)"
    ~columns:[ "sigma"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:"n=5, silent-until-TS; larger sigma = lazier session \
                     turnover = later worst-case decisions"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E9: clock drift                                                     *)
(* ------------------------------------------------------------------ *)

let e9_cfg rho = Dgl.Config.make ~n:5 ~delta ~rho ()

let e9_run ~rho ~record_trace seed =
  let sc =
    Sim.Scenario.make ~name:"e9" ~n:5 ~ts ~delta ~rho ~seed
      ~network:Sim.Network.silent_until_ts ~record_trace ()
  in
  Sim.Engine.run sc (Dgl.Modified_paxos.protocol (e9_cfg rho))

(* Tolerance of clock-rate error [rho] while the timer window
   [[4 delta, sigma]] stays feasible. *)
let e9 ?(speed = Quick) () =
  let rhos = [ 0.; 0.02; 0.05; 0.1 ] in
  let rows, notes, reg =
    par_collect rhos (fun obs rho ->
        let bound = Dgl.Config.decision_bound (e9_cfg rho) /. delta in
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = e9_run ~rho ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n:5 ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.2f" rho;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
          Report.cell_f bound;
          Report.cell_bool (worst <= bound);
        ])
  in
  Report.make ~id:"E9" ~title:"Clock-rate error tolerance"
    ~claim:
      "timers only need a known rate-error bound rho << 1: the session \
       timer is set so its real duration stays inside [4*delta, sigma] for \
       every admissible rate (Sec. 4)"
    ~columns:[ "rho"; "mean lat(d)"; "worst lat(d)"; "bound(d)"; "<=bound" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, sigma = 5*delta (feasible for rho <= 0.11); per-process \
            clock rates drawn from [1-rho, 1+rho]"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A1: session-gate ablation                                           *)
(* ------------------------------------------------------------------ *)

(* The gated algorithm against its worst admissible adversary (session-1
   ballots), or the ungated one against session-1000k ballots. *)
let a1_run ~n ~gated ~record_trace seed =
  let victims = Adversaries.faulty_minority ~n in
  let options =
    { Dgl.Modified_paxos.default_options with session_gate = gated }
  in
  let injections =
    if gated then
      Adversaries.dgl_session1_injections ~n ~from:ts ~spacing:(2. *. delta)
        ~victims
    else
      Adversaries.dgl_high_session_injections ~n ~from:ts
        ~spacing:(3. *. delta) ~victims
  in
  let sc =
    Sim.Scenario.make ~name:"a1" ~n ~ts ~delta ~seed
      ~network:Sim.Network.deterministic_after_ts
      ~faults:(Sim.Fault.make ~initially_down:victims [])
      ~record_trace ()
  in
  Sim.Engine.run ~injections sc
    (Dgl.Modified_paxos.protocol ~options (mp_cfg n))

(* Ablation: dropping the session gate (condition (ii) of Start
   Phase 1) re-opens the [O(N delta)] obsolete-ballot attack. *)
let a1 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let victims = Adversaries.faulty_minority ~n in
        let live = Measure.procs ~n ~except:victims () in
        let run ~gated =
          let r = a1_run ~n ~gated ~record_trace:false seed_base in
          check obs r;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let ungated = run ~gated:false in
        let gated = run ~gated:true in
        [
          string_of_int n;
          string_of_int (List.length victims);
          Report.cell_latency ungated;
          Report.cell_latency gated;
        ])
  in
  Report.make ~id:"A1" ~title:"Ablation: the session gate is load-bearing"
    ~claim:
      "without condition (ii) of Start Phase 1, failed processes can leave \
       behind arbitrarily high sessions and each obsolete ballot costs \
       another O(delta) — the gate makes such ballots impossible (Sec. 4)"
    ~columns:[ "n"; "obsolete"; "ungated worst(d)"; "gated worst(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "the ungated variant faces session-1000k ballots (admissible \
            without the gate); the gated algorithm faces its own worst \
            admissible adversary, session-1 ballots — the gate caps \
            obsolete sessions at s0+1 (proof step 1)"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A2: oracle hold-back ablation                                       *)
(* ------------------------------------------------------------------ *)

let a2_run ~hold_back_factor ~record_trace seed =
  let n = 9 in
  let tuning =
    {
      (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
      hold_back = hold_back_factor *. delta;
    }
  in
  let sc =
    Sim.Scenario.make ~name:"a2" ~n ~ts ~delta ~seed
      ~network:Sim.Network.silent_until_ts
      ~horizon:(ts +. (500. *. delta))
      ~record_trace ()
  in
  Sim.Engine.run sc
    (Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta ~rho:0. ())

(* Ablation: oracle hold-backs shorter than [2 delta] break same-order
   delivery and slow modified B-Consensus down. *)
let a2 ?(speed = Quick) () =
  let factors = [ 0.; 0.5; 1.; 2.; 4. ] in
  let rows, notes, reg =
    par_collect factors (fun obs f ->
        let lats =
          Measure.over_seeds ~seeds:(seeds speed) ~base:seed_base (fun seed ->
              let r = a2_run ~hold_back_factor:f ~record_trace:false seed in
              check obs r;
              Measure.worst_latency r
                ~procs:(Measure.procs ~n:9 ())
                ~from_time:ts ~delta)
        in
        let worst = List.fold_left Float.max 0. lats in
        [
          Printf.sprintf "%.1f delta" f;
          Report.cell_f (Sim.Metrics.mean lats);
          Report.cell_latency worst;
        ])
  in
  Report.make ~id:"A2" ~title:"Ablation: oracle hold-back duration"
    ~claim:
      "the 2*delta hold-back is what makes oracle delivery order identical \
       at all processes after TS (Sec. 5); shorter hold-backs let delivery \
       orders diverge, costing extra rounds"
    ~columns:[ "hold-back"; "mean lat(d)"; "worst lat(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=9, silent-until-TS network; safety never depends on the \
            hold-back (agreement checked on every run), only latency does: \
            short hold-backs make processes report different values, \
            costing extra rounds until estimates coalesce"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E10: state machine replication, stable-case commit cost             *)
(* ------------------------------------------------------------------ *)

let e10_gap = 10. *. delta

let e10_commands = 6

(* Commands go to follower 1 from 20 deltas after TS (TS = 0 when
   stable from the start), one every {!e10_gap}. *)
let e10_start ~stable_from_start =
  (if stable_from_start then 0. else ts) +. (20. *. delta)

let e10_run ~stable_from_start ~record_trace seed =
  let n = 5 in
  let start = e10_start ~stable_from_start in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init e10_commands (fun k ->
              ( start +. (e10_gap *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add 1) )))
  in
  let sc =
    Sim.Scenario.make ~name:"e10" ~n
      ~ts:(if stable_from_start then 0. else ts)
      ~delta ~seed
      ~network:
        (if stable_from_start then Sim.Network.deterministic_after_ts
         else Sim.Network.eventually_synchronous ())
      ~record_trace
      ~horizon:
        (start +. (float_of_int e10_commands *. e10_gap) +. (100. *. delta))
      ()
  in
  Sim.Engine.run sc (Smr.Multi_paxos.protocol (mp_cfg n) ~workloads)

(* State machine replication (lib/smr): with phase 1 pre-executed for
   all instances, a stable leader commits each command within 3 message
   delays (Section 4, "Reducing Message Complexity"). *)
let e10 ?(speed = Quick) () =
  ignore speed;
  let run obs ~stable_from_start =
    let start = e10_start ~stable_from_start in
    let r = e10_run ~stable_from_start ~record_trace:true seed_base in
    record_metrics obs r;
    (* SMR decisions are log checksums, so only the agreement half of the
       safety check applies (checksum equality = identical applied logs). *)
    (match r.Sim.Engine.agreement_violation with
    | Some _ ->
        obs.notes := "SAFETY: E10 replicated logs diverged" :: !(obs.notes)
    | None -> ());
    (* commit latency per command from trace notes *)
    let submits = Hashtbl.create 16 and chosens = Hashtbl.create 16 in
    List.iter
      (fun e ->
        match e with
        | Sim.Trace.Note { t; text; _ } -> (
            match String.split_on_char ':' text with
            | [ "submit"; id ] -> Hashtbl.replace submits (int_of_string id) t
            | [ "chosen"; id ] ->
                let id = int_of_string id in
                if not (Hashtbl.mem chosens id) then Hashtbl.add chosens id t
            | _ -> ())
        | _ -> ())
      (Sim.Trace.entries r.Sim.Engine.trace);
    let lats =
      Sim.Sorted_tbl.fold ~compare:Int.compare
        (fun id t0 acc ->
          match Hashtbl.find_opt chosens id with
          | Some t1 -> (t1 -. t0) /. delta :: acc
          | None -> Float.infinity :: acc)
        submits []
    in
    (* Split steady-state traffic: phase-2 messages are the per-command
       cost (expect ~2n+1: forward + n 2a + n 2b); the rest is the
       epsilon gossip, the paper's "unavoidable cost of fast recovery",
       reported as a background rate. *)
    let window_lo = start
    and window_hi = start +. (float_of_int e10_commands *. e10_gap) in
    let phase2 = ref 0 and gossip = ref 0 in
    Sim.Trace.fold_window
      (fun () e ->
        match e with
        | Sim.Trace.Send { payload; _ } -> (
            match payload.Sim.Trace.kind with
            | "2a" | "2b" | "forward" -> incr phase2
            | _ -> incr gossip)
        | _ -> ())
      () r.Sim.Engine.trace ~lo:window_lo ~hi:window_hi;
    let phase2_per_cmd = float_of_int !phase2 /. float_of_int e10_commands in
    let gossip_rate =
      float_of_int !gossip /. ((window_hi -. window_lo) /. delta)
    in
    (lats, phase2_per_cmd, gossip_rate)
  in
  let variants, notes, reg =
    par_collect [ true; false ] (fun obs stable_from_start ->
        run obs ~stable_from_start)
  in
  let (stable_lats, stable_p2, stable_g), (churn_lats, churn_p2, churn_g) =
    match variants with [ a; b ] -> (a, b) | _ -> assert false
  in
  let steady xs = List.filter Float.is_finite xs in
  let rows =
    [
      [
        "stable from start";
        Report.cell_f (Sim.Metrics.mean (steady stable_lats));
        Report.cell_latency (List.fold_left Float.max 0. stable_lats);
        Report.cell_f stable_p2;
        Report.cell_f stable_g;
      ];
      [
        "submits after chaos";
        Report.cell_f (Sim.Metrics.mean (steady churn_lats));
        Report.cell_latency (List.fold_left Float.max 0. churn_lats);
        Report.cell_f churn_p2;
        Report.cell_f churn_g;
      ];
    ]
  in
  Report.make ~id:"E10"
    ~title:"State machine replication: per-command commit cost"
    ~claim:
      "with phase 1 executed in advance for all instances, a stable \
       leader commits each command within 3 message delays (forward, 2a, \
       2b); the epsilon-periodic 1a gossip is the steady-state overhead \
       (Sec. 4, Reducing Message Complexity)"
    ~columns:
      [
        "scenario";
        "mean commit(d)";
        "worst commit(d)";
        "phase-2 msgs/cmd";
        "gossip msgs/delta";
      ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, 6 commands submitted to a follower 10 delta apart; commit \
            latency = submit to first replica learning the choice; expect \
            ~n^2+n+1 = 31 phase-2 messages per command (2b is broadcast so \
            every replica learns in 3 delays; relaying via the leader \
            would cost a 4th delay for O(n) messages) plus epsilon-period \
            forward retries; replica logs compared by order-sensitive \
            checksum"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A3: round jumping vs executing all rounds (original B-Consensus)    *)
(* ------------------------------------------------------------------ *)

(* Process 4 is partitioned from the majority from boot until TS' =
   [isolation] deltas.  With [~probe] the run stops at the heal instant
   (the horizon sits a hair above TS', as validation requires horizon >
   ts, far below the minimum post-heal delivery delay of 0.05 delta), so
   the table can read how many rounds the majority burned through. *)
let a3_run ~probe ~isolation ~jump ~record_trace seed =
  let n = 5 in
  let ts' = isolation *. delta in
  let tuning =
    {
      (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
      epsilon = delta;
      jump;
    }
  in
  let network = Sim.Network.partitioned_until_ts [ List.init (n - 1) Fun.id ] in
  let sc =
    if probe then
      Sim.Scenario.make ~name:"a3-probe" ~n ~ts:ts' ~delta ~seed ~network
        ~horizon:(ts' +. 1e-9) ~stop_on_all_decided:false ~record_trace ()
    else
      Sim.Scenario.make ~name:"a3" ~n ~ts:ts' ~delta ~seed ~network
        ~record_trace
        ~horizon:(ts' +. (500. *. delta))
        ()
  in
  Sim.Engine.run sc
    (Bconsensus.Modified_b_consensus.protocol ~tuning ~n ~delta ~rho:0. ())

(* Ablation: with round jumping disabled (the original B-Consensus
   shape) a straggler executes every round in order and its catch-up
   grows with how far behind it is (Section 5, last paragraph). *)
let a3 ?(speed = Quick) () =
  ignore speed;
  let straggler = 4 in
  let partition_lengths = [ 25.; 50.; 100. ] in
  let run obs ~jump ~isolation =
    let ts' = isolation *. delta in
    (* probe: how many rounds did the majority group burn through? *)
    let probe =
      a3_run ~probe:true ~isolation ~jump ~record_trace:false seed_base
    in
    let rounds_behind =
      match probe.Sim.Engine.final_states.(0) with
      | Some st -> Bconsensus.Modified_b_consensus.round st
      | None -> -1
    in
    let r = a3_run ~probe:false ~isolation ~jump ~record_trace:true seed_base in
    record_metrics obs probe;
    record_metrics obs r;
    (match r.Sim.Engine.agreement_violation with
    | Some _ -> obs.notes := "SAFETY: A3 disagreement" :: !(obs.notes)
    | None -> ());
    (* retransmission volume right before the heal: messages per delta *)
    let volume =
      float_of_int
        (Sim.Trace.sends_in_window r.Sim.Engine.trace
           ~lo:(ts' -. (5. *. delta))
           ~hi:ts')
      /. 5.
    in
    ( rounds_behind,
      Measure.worst_latency r ~procs:[ straggler ] ~from_time:ts' ~delta,
      volume )
  in
  let rows, notes, reg =
    par_collect partition_lengths (fun obs len ->
        let rounds, lat_jump, vol_jump = run obs ~jump:true ~isolation:len in
        let _, lat_nojump, vol_nojump = run obs ~jump:false ~isolation:len in
        [
          Printf.sprintf "%.0f delta" len;
          string_of_int rounds;
          Report.cell_latency lat_jump;
          Report.cell_latency lat_nojump;
          Report.cell_f vol_jump;
          Report.cell_f vol_nojump;
        ])
  in
  Report.make ~id:"A3"
    ~title:"Ablation: round jumping vs executing every round"
    ~claim:
      "as described by Pedone et al., a process must execute all previous \
       rounds, so peers must keep retransmitting every round and a \
       straggler's catch-up grows with how far behind it is; \"the \
       algorithm is easily modified to allow a process to jump \
       immediately to a later round\" (Sec. 5)"
    ~columns:
      [
        "straggler isolated for";
        "rounds behind";
        "jump: catch-up(d)";
        "no jump: catch-up(d)";
        "jump: msgs/delta";
        "no jump: msgs/delta";
      ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5; one process partitioned from boot until TS while the \
            majority keeps advancing rounds; catch-up = straggler's \
            decision latency after the heal (small either way, because \
            old-round locks carry the decision); the separating cost is \
            the retransmission volume, which grows with the round count \
            without jumping and is flat with it"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* E11: electing a leader is the same problem                          *)
(* ------------------------------------------------------------------ *)

let e11_tuning = Baselines.Heartbeat_omega.default_tuning ~delta

(* The dead low ids, and with [~stale] their stale heartbeats, spaced one
   trust window apart so each buys a full window of misplaced trust. *)
let e11_run ~n ~stale ~record_trace seed =
  let dead = dead_low_ids n in
  let spacing =
    e11_tuning.Baselines.Heartbeat_omega.timeout -. (0.1 *. delta)
  in
  let injections =
    if not stale then []
    else
      List.concat_map
        (fun v ->
          let at = ts +. (float_of_int v *. spacing) in
          List.filter_map
            (fun dst ->
              if List.mem dst dead then None
              else
                Some
                  (at, v, dst, Baselines.Heartbeat_omega.Heartbeat { id = v }))
            (List.init n Fun.id))
        dead
  in
  let sc =
    Sim.Scenario.make ~name:"e11" ~n ~ts ~delta ~seed
      ~network:Sim.Network.deterministic_after_ts
      ~faults:(Sim.Fault.make ~initially_down:dead [])
      ~horizon:(ts +. (1000. *. delta))
      ~record_trace ()
  in
  Sim.Engine.run ~injections sc
    (Baselines.Heartbeat_omega.protocol ~tuning:e11_tuning ~n ~delta ())

(* A concrete heartbeat-based leader elector stabilizes in O(delta)
   after TS only without obsolete heartbeats; stale heartbeats from dead
   low-id processes delay it O(N delta) — the Section 3 remark about
   leader-based algorithms, made executable. *)
let e11 ?(speed = Quick) () =
  let rows, notes, reg =
    par_collect (sizes speed) (fun obs n ->
        let dead = dead_low_ids n in
        let k = List.length dead in
        let live = Measure.procs ~n ~except:dead () in
        let run ~stale =
          let r = e11_run ~n ~stale ~record_trace:false seed_base in
          record_metrics obs r;
          (* all live processes must settle on the lowest live id *)
          List.iter
            (fun p ->
              match r.Sim.Engine.decision_values.(p) with
              | Some v when v <> k ->
                  obs.notes :=
                    Printf.sprintf
                      "SAFETY: E11 p%d settled on leader %d, expected %d" p v
                      k
                    :: !(obs.notes)
              | _ -> ())
            live;
          Measure.worst_latency r ~procs:live ~from_time:ts ~delta
        in
        let clean = run ~stale:false in
        let attacked = run ~stale:true in
        [
          string_of_int n;
          string_of_int k;
          Report.cell_latency clean;
          Report.cell_latency attacked;
        ])
  in
  Report.make ~id:"E11"
    ~title:"Heartbeat Omega: leader election is the same problem"
    ~claim:
      "relying on a leader elector \"simply shifts our problem to that of \
       electing a leader within O(delta) seconds of TS, in the presence \
       of obsolete messages and process restarts\" (Sec. 3): stale \
       heartbeats from dead low-id processes delay a lowest-id-alive \
       elector by one trust window each"
    ~columns:
      [ "n"; "dead low ids"; "no stale hb: settle(d)"; "stale hbs: settle(d)" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "heartbeat period delta/2, trust window 2.5 delta; settle = all \
            live processes stably trusting the lowest live id; stale \
            heartbeats spaced one window apart cost ~2.5 delta each \
            (linear in the dead count), vs O(delta) without them"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* A4: the SMR progress gate (stable leadership)                       *)
(* ------------------------------------------------------------------ *)

let a4_horizon = 3.0

(* Five commands to follower 1, then idle until {!a4_horizon}. *)
let a4_run ~progress_gate ~record_trace seed =
  let n = 5 in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init 5 (fun k ->
              ( 0.1 +. (20. *. delta *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add 1) )))
  in
  let sc =
    Sim.Scenario.make ~name:"a4" ~n ~ts:0. ~delta ~seed
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:a4_horizon ~record_trace ()
  in
  Sim.Engine.run sc
    (Smr.Multi_paxos.protocol ~progress_gate (mp_cfg n) ~workloads)

(* Ablation: without the progress gate the SMR layer's leadership
   churns every session timeout even in a healthy system (the gate is
   this repository's realization of the paper's "same behavior as
   normal Paxos in the stable case"; see DESIGN.md 4b.5). *)
let a4 ?(speed = Quick) () =
  ignore speed;
  let run obs ~progress_gate =
    let r = a4_run ~progress_gate ~record_trace:false seed_base in
    record_metrics obs r;
    (match r.Sim.Engine.agreement_violation with
    | Some _ -> obs.notes := "SAFETY: A4 log divergence" :: !(obs.notes)
    | None -> ());
    let sessions =
      match r.Sim.Engine.final_states.(0) with
      | Some st -> Smr.Multi_paxos.session_number st
      | None -> -1
    in
    let converged =
      Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values
    in
    ( sessions,
      float_of_int r.Sim.Engine.messages_sent /. (a4_horizon /. delta),
      converged )
  in
  let variants, notes, reg =
    par_collect [ true; false ] (fun obs progress_gate ->
        run obs ~progress_gate)
  in
  let (s_on, m_on, c_on), (s_off, m_off, c_off) =
    match variants with [ a; b ] -> (a, b) | _ -> assert false
  in
  let rows =
    [
      [
        "progress gate on";
        string_of_int s_on;
        Report.cell_f m_on;
        Report.cell_bool c_on;
      ];
      [
        "progress gate off";
        string_of_int s_off;
        Report.cell_f m_off;
        Report.cell_bool c_off;
      ];
    ]
  in
  Report.make ~id:"A4" ~title:"Ablation: the SMR progress gate"
    ~claim:
      "the multi-instance variant matches \"the same behavior as normal \
       Paxos in the stable case\" (Sec. 4) only if session timeouts stand \
       down while commands are being chosen; without the gate, leadership \
       churns every ~4.5 delta forever and every churn re-runs phase 1"
    ~columns:
      [ "variant"; "sessions in 300 delta"; "msgs/delta"; "all converged" ]
    ~rows
    ~notes:
      (drain_notes ~reg
         ~pass_note:
           "n=5, stable from the start, 5 commands then idle; the gate \
            freezes the session number once the system is healthy; both \
            variants stay safe and converge, and total message volume is \
            dominated by the epsilon gossip either way — what the gate \
            buys is stable leadership (no phase-1 interruptions), which \
            is what makes single-round commits the steady state"
         notes)
    ()

(* ------------------------------------------------------------------ *)
(* The headline comparison, as a chartable series                      *)
(* ------------------------------------------------------------------ *)

let headline ?(speed = Quick) () =
  List.concat
    (Measure.par_map
       (fun n ->
         let lat ~dead r =
           Measure.worst_latency r
             ~procs:(Measure.procs ~n ~except:dead ())
             ~from_time:ts ~delta
         in
         let minority = Adversaries.faulty_minority ~n in
         let m =
           lat ~dead:minority
             (e1_run ~n ~lossy:false ~record_trace:false seed_base)
         in
         let t = lat ~dead:minority (e2_run ~n ~record_trace:false seed_base) in
         let rc =
           lat ~dead:(dead_low_ids n) (e3_run ~n ~record_trace:false seed_base)
         in
         [
           (Printf.sprintf "n=%-2d modified Paxos" n, m);
           (Printf.sprintf "n=%-2d traditional Paxos" n, t);
           (Printf.sprintf "n=%-2d rotating coord." n, rc);
         ])
       (sizes speed))

(* ------------------------------------------------------------------ *)
(* The experiment list: each table with its representative run         *)
(* ------------------------------------------------------------------ *)

(* One row of a table, at [seed_base], with its state type erased so
   the list is uniform.  [timer_bounds] and [validity] say how the
   invariant checker judges its trace: session-timer window for
   modified Paxos, and whether decided values are proposals (not for
   SMR log checksums or elected leader ids). *)
type representative = {
  run : record_trace:bool -> unit Sim.Engine.run_result;
  timer_bounds : (float * float) option;
  validity : bool;
}

let rep ?timer_bounds ?(validity = true) run =
  {
    run =
      (fun ~record_trace ->
        let r = run ~record_trace seed_base in
        {
          r with
          Sim.Engine.final_states =
            Array.map (fun _ -> None) r.Sim.Engine.final_states;
        });
    timer_bounds;
    validity;
  }

(* Modified-Paxos session timers must stay inside [4 delta, sigma]. *)
let timers cfg = (delta, cfg.Dgl.Config.sigma)

let experiments =
  [
    ( "e1",
      e1,
      rep ~timer_bounds:(timers (mp_cfg 9)) (e1_run ~n:9 ~lossy:false) );
    ("e2", e2, rep (e2_run ~n:9));
    ("e3", e3, rep (e3_run ~n:9));
    ("e4", e4, rep ~timer_bounds:(timers (mp_cfg 5)) (e4_run ~offset:20.));
    ("e5", e5, rep (e5_run ~n:9 ~lossy:false));
    ( "e6",
      e6,
      rep ~timer_bounds:(timers (e6_cfg 1.))
        (e6_run ~eps_factor:1. ~rate:false) );
    ("e7", e7, rep ~timer_bounds:(timers (mp_cfg 5)) (e7_run ~prestart:true));
    ( "e8",
      e8,
      rep ~timer_bounds:(timers (e8_cfg 8.)) (e8_run ~sigma_factor:8.) );
    ("e9", e9, rep ~timer_bounds:(timers (e9_cfg 0.05)) (e9_run ~rho:0.05));
    ("e10", e10, rep ~validity:false (e10_run ~stable_from_start:true));
    ("e11", e11, rep ~validity:false (e11_run ~n:9 ~stale:true));
    ( "a1",
      a1,
      rep ~timer_bounds:(timers (mp_cfg 9)) (a1_run ~n:9 ~gated:false) );
    ("a2", a2, rep (a2_run ~hold_back_factor:0.5));
    ("a3", a3, rep (a3_run ~probe:false ~isolation:25. ~jump:false));
    ("a4", a4, rep ~validity:false (a4_run ~progress_gate:false));
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun (i, _, _) -> i = id) experiments

let by_id id = Option.map (fun (_, table, _) -> table) (find id)

let ids = List.map (fun (id, _, _) -> id) experiments

(* The whole suite is itself a sweep: experiments fan out alongside their
   own rows (nested [par_map] is deadlock-free), and results come back
   in table order. *)
let all ?(speed = Quick) () =
  Measure.par_map
    (fun ((_, table, _) : _ * (?speed:speed -> unit -> Report.table) * _) ->
      table ~speed ())
    experiments

let representative id = Option.map (fun (_, _, rp) -> rp.run) (find id)

(* ------------------------------------------------------------------ *)
(* Traced replays                                                      *)
(* ------------------------------------------------------------------ *)

type replay = {
  replay_id : string;
  scenario : Sim.Scenario.t;
  trace : Sim.Trace.t;
  metrics : Sim.Registry.t;
  proposals : int array option;
  timer_bounds : (float * float) option;
  invariants : Invariants.report;
}

let replay id =
  Option.map
    (fun (replay_id, _, { run; timer_bounds; validity }) ->
      let r = run ~record_trace:true in
      let proposals =
        if validity then Some r.Sim.Engine.scenario.Sim.Scenario.proposals
        else None
      in
      {
        replay_id;
        scenario = r.Sim.Engine.scenario;
        trace = r.Sim.Engine.trace;
        metrics = r.Sim.Engine.metrics;
        proposals;
        timer_bounds;
        invariants =
          Invariants.check ?proposals ?timer_bounds r.Sim.Engine.trace;
      })
    (find id)
