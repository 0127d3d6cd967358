(* Allocation budgets for the simulation hot path.

   The engine's contract after the packed-event rework: the steady-state
   event loop — pop, dispatch, network decision, re-schedule — allocates
   {e nothing} when tracing is off, the network policy draws no floats
   from the PRNG, and the protocol handlers themselves do not allocate.
   [Harness.Hotpath.pinger] is exactly that configuration, and its
   steady-state slope must be 0.0 words/event, measured — not asserted
   from first principles — via [Gc.minor_words] differencing.

   Everything else carries a documented, pinned budget:

   - the timer path boxes its [local_delay] float at the context-closure
     boundary and the drifted-clock conversion returns a boxed float
     (cross-module calls are not inlined in the dev profile), so
     [Hotpath.ticker] has a small nonzero slope;
   - real protocols allocate in their handlers (message values, state
     records, lists) and during boot/decide, and RNG-drawing network
     policies box each [Prng.float] result.  Their budgets are whole-run
     averages (total minor words / events processed) over a fixed
     scenario, pinned ~2x above the measured value so a regression that
     doubles per-event garbage fails loudly while GC-parameter noise does
     not.

   All runs here are deterministic (fixed seed), so the measured values
   are reproducible modulo OCaml-version codegen differences. *)

let horizon_lo = 1.0

let horizon_hi = 11.0

let test_engine_loop_is_allocation_free () =
  let slope =
    Harness.Hotpath.alloc_words_per_event Harness.Hotpath.pinger ~n:3
      ~horizon_lo ~horizon_hi
  in
  Alcotest.(check (float 0.)) "steady-state words/event" 0.0 slope

(* Boxed floats on the set_timer path (the [local_delay] argument boxes
   at the context-closure boundary; measured slope 2.0 words/event),
   pinned with headroom for codegen variation across compiler versions. *)
let timer_budget = 8.

let test_timer_path_budget () =
  let slope =
    Harness.Hotpath.alloc_words_per_event Harness.Hotpath.ticker ~n:3
      ~horizon_lo ~horizon_hi
  in
  Alcotest.(check bool)
    (Printf.sprintf "timer slope %.2f words/event within [0, %.0f]" slope
       timer_budget)
    true
    (slope >= 0. && slope <= timer_budget)

(* Whole-run budgets for the real protocols, over the conformance-style
   scenario below.  Measured (dev profile, OCaml 5.1): modified-paxos
   54.3, ungated 54.3, traditional 60.1, rotating 42.2, b-consensus
   90.5 words/event — handler-side allocation (message/state values,
   quorum sets) plus the boxed floats the RNG-drawing network policy
   produces.  Budgets are ~2x measured.

   At n = 3 b-consensus decides within 223 events, before its ordering
   oracle holds many messages; at n = 17 the oracle holds hundreds, and
   a sorted-list oracle copied most of them on every receipt (236.6
   words/event).  The hold-back queue measures 75.9 there, pinned
   ~1.3x above. *)

let delta = 0.01

let ts = 0.5

let scenario ~n =
  Sim.Scenario.make ~name:"alloc-budget" ~n ~ts ~delta ~seed:424242L
    ~network:(Sim.Network.eventually_synchronous ())
    ~horizon:(ts +. (500. *. delta))
    ()

let words_per_event run =
  ignore (run () : int) (* warm up: first run pays one-time setup *);
  let w0 = Gc.minor_words () in
  let events = run () in
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int events

let check_budget name ~budget run =
  let wpe = words_per_event run in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words/event within [0, %.0f]" name wpe budget)
    true
    (wpe >= 0. && wpe <= budget)

let n = 3

let test_modified_paxos () =
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc = scenario ~n in
  check_budget "modified-paxos" ~budget:110. (fun () ->
      (Sim.Engine.run sc (Dgl.Modified_paxos.protocol cfg))
        .Sim.Engine.events_processed)

let test_ungated_paxos () =
  let cfg = Dgl.Config.make ~n ~delta () in
  let options =
    { Dgl.Modified_paxos.default_options with session_gate = false }
  in
  let sc = scenario ~n in
  check_budget "ungated-paxos" ~budget:110. (fun () ->
      (Sim.Engine.run sc (Dgl.Modified_paxos.protocol ~options cfg))
        .Sim.Engine.events_processed)

let test_traditional_paxos () =
  let sc = scenario ~n in
  check_budget "traditional-paxos" ~budget:120. (fun () ->
      let oracle =
        Baselines.Leader_election.make ~n ~ts ~delta ~faults:Sim.Fault.none ()
      in
      (Sim.Engine.run sc (Baselines.Traditional_paxos.protocol ~n ~delta ~oracle ()))
        .Sim.Engine.events_processed)

let test_rotating_coordinator () =
  let sc = scenario ~n in
  check_budget "rotating-coordinator" ~budget:90. (fun () ->
      (Sim.Engine.run sc (Baselines.Rotating_coordinator.protocol ~n ~delta ()))
        .Sim.Engine.events_processed)

let b_consensus_budget ~n ~budget () =
  let sc = scenario ~n in
  check_budget
    (Printf.sprintf "modified-b-consensus n=%d" n)
    ~budget
    (fun () ->
      (Sim.Engine.run sc
         (Bconsensus.Modified_b_consensus.protocol ~n ~delta ~rho:0. ()))
        .Sim.Engine.events_processed)

let test_b_consensus = b_consensus_budget ~n ~budget:180.

let test_b_consensus_n17 = b_consensus_budget ~n:17 ~budget:100.


(* Model-checker fingerprints.  A [Model] state is its own word stream,
   and [Fingerprint.of_words] hashes it in one loop with both int64
   lanes in local unboxed variables, so nothing is boxed per input word
   even under [-opaque].  Measured (dev profile, OCaml 5.1): 4.0 words
   per [Model.fingerprint] call — the 16-byte result — whatever the
   message count.  The constant is pinned ~2x above that and the slope
   at <= 1 word per message; boxed lanes cost several words per input
   word, about four input words per message. *)

let fingerprint_budget = 8.

let mcheck_cfg =
  { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 2;
    gate = true }

let msg_count = Mcheck.Model.msg_count

(* Walk the search space greedily, taking the first successor that adds a
   message, for up to [steps] steps. *)
let rec grow st steps =
  if steps = 0 then st
  else
    match
      List.find_opt
        (fun s -> msg_count s > msg_count st)
        (Mcheck.Model.successors mcheck_cfg st)
    with
    | Some s -> grow s (steps - 1)
    | None -> st

let words_per_fingerprint st =
  let calls = 1000 in
  ignore (Sys.opaque_identity (Mcheck.Model.fingerprint st));
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Mcheck.Model.fingerprint st))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_fingerprint_budget () =
  let empty = Mcheck.Model.initial mcheck_cfg in
  let full = grow empty 20 in
  let msgs = msg_count full in
  Alcotest.(check bool) (Printf.sprintf "%d messages reached" msgs) true
    (msgs >= 15);
  let w0 = words_per_fingerprint empty and w1 = words_per_fingerprint full in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/fingerprint with no message within [0, %.0f]"
       w0 fingerprint_budget)
    true
    (w0 >= 0. && w0 <= fingerprint_budget);
  let slope = (w1 -. w0) /. float_of_int msgs in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per message within 1" slope)
    true
    (Float.abs slope <= 1.)

(* Trace recording.  A message entry whose kind is a string literal and
   whose detail is empty allocates nothing: the kind is found by
   physical identity, the optional fields are written without an
   option-matching closure.  A delivery that copies its send's record
   allocates nothing either: the engine passes its time as an int
   [Sim_time] key.  (A constant [~t] is a static float, so the calls
   below box nothing at the call site.) *)

let words_per_call n f =
  f 0 (* warm up: the first call interns the strings *);
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let literal_payload = Sim.Trace.payload ~session:1 ~ballot:7 ~phase:1 "1a"

let test_trace_record_allocates_nothing () =
  let tr = Sim.Trace.create ~capacity:64 ~enabled:true () in
  let w =
    words_per_call 1000 (fun i ->
        Sim.Trace.record_send tr ~t:0.5 ~id:i ~src:0 ~dst:1 literal_payload)
  in
  Alcotest.(check (float 0.)) "words per literal-kind message record" 0. w

let test_trace_copy_allocates_nothing () =
  let tr = Sim.Trace.create ~capacity:64 ~enabled:true () in
  let key = Sim.Sim_time.key_of_t 0.75 in
  let sent = ref 0 in
  let w =
    words_per_call 1000 (fun i ->
        sent := Sim.Trace.total_recorded tr;
        Sim.Trace.record_send tr ~t:0.5 ~id:i ~src:0 ~dst:1 literal_payload;
        if not (Sim.Trace.deliver_as_sent tr ~sent:!sent ~key) then
          Alcotest.fail "the send just recorded was not copied")
  in
  Alcotest.(check (float 0.)) "words per send + copied delivery" 0. w

(* The ordering oracle's receipt: a message stamped near the maximum —
   the common case, since every process stamps past what it has heard —
   costs the same whether 16 or 512 messages are held.  The stream below
   stamps message [i] with counter [i] from origin [i mod 5]; the probe
   stamp falls a few places below the newest.  A sorted list copies
   every held message ahead of the probe's slot, three words each. *)
module Oracle = Bconsensus.Ordering_oracle

let words_per_receive held =
  let o =
    List.fold_left
      (fun o i ->
        fst
          (Oracle.receive o ~now_local:(float_of_int i) ~stamp:
             { Consensus.Logical_clock.counter = i; origin = i mod 5 } i))
      (Oracle.create ~owner:0 ~hold_local:1e6)
      (List.init held (fun i -> i + 1))
  in
  let stamp = { Consensus.Logical_clock.counter = held - 2; origin = 4 } in
  let now_local = float_of_int held in
  words_per_call 1000 (fun i ->
      ignore (Sys.opaque_identity (Oracle.receive o ~now_local ~stamp i)))

(* Words one receipt may cost beyond the same receipt into a small
   oracle; measured 0. *)
let oracle_receive_slack = 4.

let test_oracle_receive_flat () =
  let small = words_per_receive 16 and large = words_per_receive 512 in
  Alcotest.(check bool)
    (Printf.sprintf
       "receive: %.1f words holding 512 within %.1f + %.0f holding 16" large
       small oracle_receive_slack)
    true
    (large <= small +. oracle_receive_slack)

(* The same through the engine: the traced token ring boxes only the
   time of each send record (2 words per event; each event is one
   delivery and one send).  A delivery that rebuilt its entry instead of
   copying the send would box its time too, doubling the slope. *)
let traced_ring_budget = 2.

let test_traced_engine_delivery () =
  let run horizon =
    let sc =
      {
        (Harness.Hotpath.scenario ~n:3 ~horizon ()) with
        Sim.Scenario.record_trace = true;
        trace_capacity = 4096;
      }
    in
    let w0 = Gc.minor_words () in
    let r = Sim.Engine.run sc Harness.Hotpath.pinger in
    (Gc.minor_words () -. w0, r.Sim.Engine.events_processed)
  in
  ignore (run horizon_hi);
  let w_lo, e_lo = run horizon_lo and w_hi, e_hi = run horizon_hi in
  let slope = (w_hi -. w_lo) /. float_of_int (e_hi - e_lo) in
  Alcotest.(check bool)
    (Printf.sprintf "traced ring slope %.2f words/event within [0, %.0f]" slope
       traced_ring_budget)
    true
    (slope >= 0. && slope <= traced_ring_budget)

(* The arena's trace-record column exists only in traced runs: an
   untraced modified-paxos run (the bench's [alloc_words_per_run]
   workload) allocates no more than the 95391 words it did before the
   column was added (OCaml 5.1, dev profile). *)
let untraced_run_budget = 95391.

let test_untraced_run_budget () =
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
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "untraced run: %.0f words within %.0f" w
       untraced_run_budget)
    true
    (w <= untraced_run_budget)

(* The invariant checker.  Its per-entry state is flat: message origins
   in an array kept per domain between calls, pending timers in one
   float heap per (process, tag), so an entry adds no block of the
   checker's own.  What is left are the floats [Trace.entry_time] and
   [Trace.fire_time] return boxed across the module boundary (timer
   entries only) and one table entry per new process or tag.  Measured
   over the traces of the first 40 scenarios of fuzz seed 42 (the
   default protocol mix; dev profile, OCaml 5.1): 1.08 words per entry,
   against 16.0 when each fire partitioned and re-appended its (process,
   tag)'s list of pending timers.  Pinned ~2x above the measurement. *)
let check_budget = 2.

(* Scenario [index] of fuzz seed 42 run traced, as [Fuzz.run_one] runs
   it but keeping the run. *)
let fuzz_run index =
  let fs = Harness.Fuzz.generate ~seed:42L ~index () in
  match
    (Harness.Protocols.entry fs.protocol).build ~n:fs.n ~delta:fs.delta
      ~ts:fs.ts ~rho:fs.rho ~faults:fs.faults ()
  with
  | Harness.Protocols.Packed { protocol; inject; timer_bounds } ->
      let injections =
        match inject with
        | None -> []
        | Some inject ->
            List.map
              (fun { Harness.Fuzz_scenario.at; src; dst; session } ->
                (at, src, dst, inject ~src ~session))
              fs.injections
      in
      let r =
        Sim.Engine.run ~injections (Harness.Fuzz_scenario.to_scenario fs)
          protocol
      in
      (r.Sim.Engine.trace, r.Sim.Engine.scenario.Sim.Scenario.proposals,
       timer_bounds)

let test_invariants_check_budget () =
  let checks = List.init 40 fuzz_run in
  let pass () =
    List.iter
      (fun (trace, proposals, timer_bounds) ->
        let report =
          Harness.Invariants.check ~proposals ?timer_bounds trace
        in
        if not (Harness.Invariants.ok report) then
          Alcotest.fail "a fuzz scenario's trace fails its invariants")
      checks
  in
  pass () (* warm up: the first check sizes the origin array *);
  let w0 = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. w0 in
  let entries =
    List.fold_left
      (fun acc (trace, _, _) -> acc + Sim.Trace.length trace)
      0 checks
  in
  let wpe = words /. float_of_int entries in
  Alcotest.(check bool)
    (Printf.sprintf "check: %.2f words/entry over %d entries within [0, %.0f]"
       wpe entries check_budget)
    true
    (wpe >= 0. && wpe <= check_budget)

let suite =
  [
    Alcotest.test_case "engine loop allocates nothing" `Quick
      test_engine_loop_is_allocation_free;
    Alcotest.test_case "timer path stays in budget" `Quick
      test_timer_path_budget;
    Alcotest.test_case "modified paxos run budget" `Quick test_modified_paxos;
    Alcotest.test_case "ungated paxos run budget" `Quick test_ungated_paxos;
    Alcotest.test_case "traditional paxos run budget" `Quick
      test_traditional_paxos;
    Alcotest.test_case "rotating coordinator run budget" `Quick
      test_rotating_coordinator;
    Alcotest.test_case "b-consensus run budget" `Quick test_b_consensus;
    Alcotest.test_case "b-consensus n=17 run budget" `Quick
      test_b_consensus_n17;
    Alcotest.test_case "oracle receive flat in held messages" `Quick
      test_oracle_receive_flat;
    Alcotest.test_case "mcheck fingerprint budget" `Quick
      test_fingerprint_budget;
    Alcotest.test_case "trace record allocates nothing" `Quick
      test_trace_record_allocates_nothing;
    Alcotest.test_case "trace copy allocates nothing" `Quick
      test_trace_copy_allocates_nothing;
    Alcotest.test_case "traced delivery copies its send" `Quick
      test_traced_engine_delivery;
    Alcotest.test_case "untraced run budget" `Quick test_untraced_run_budget;
    Alcotest.test_case "invariant check budget" `Quick
      test_invariants_check_budget;
  ]
