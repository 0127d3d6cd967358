(* Section 5: the ordering oracle and modified B-Consensus. *)

let delta = 0.01

let ts = 0.5

(* --- Ordering oracle ---------------------------------------------------- *)

module O = Bconsensus.Ordering_oracle

let stamp c p = { Consensus.Logical_clock.counter = c; origin = p }

let test_oracle_stamps_increase () =
  let o = O.create ~owner:2 ~hold_local:0.02 in
  let o, s1 = O.next_stamp o in
  let _, s2 = O.next_stamp o in
  Alcotest.(check bool) "increasing" true
    (Consensus.Logical_clock.compare_stamp s1 s2 < 0)

let test_oracle_receive_advances_clock () =
  let o = O.create ~owner:0 ~hold_local:0.02 in
  let o, _ = O.receive o ~now_local:0. ~stamp:(stamp 100 1) "x" in
  let _, s = O.next_stamp o in
  Alcotest.(check bool) "next stamp dominates received" true
    (s.Consensus.Logical_clock.counter > 100)

let test_oracle_holdback () =
  let o = O.create ~owner:0 ~hold_local:0.02 in
  let o, release = O.receive o ~now_local:1.0 ~stamp:(stamp 1 1) "m" in
  Alcotest.(check (float 1e-9)) "release time" 1.02 release;
  let o, early = O.due o ~now_local:1.01 in
  Alcotest.(check int) "held back" 0 (List.length early);
  Alcotest.(check int) "still pending" 1 (O.pending_count o);
  let o, ready = O.due o ~now_local:1.02 in
  Alcotest.(check int) "released" 1 (List.length ready);
  Alcotest.(check int) "drained" 0 (O.pending_count o)

let test_oracle_stamp_order () =
  let o = O.create ~owner:0 ~hold_local:0.02 in
  (* big stamp arrives first, small stamp second; both released: deliver
     in stamp order regardless of arrival order *)
  let o, _ = O.receive o ~now_local:1.00 ~stamp:(stamp 9 1) "big" in
  let o, _ = O.receive o ~now_local:1.001 ~stamp:(stamp 2 2) "small" in
  let _, ready = O.due o ~now_local:1.05 in
  Alcotest.(check (list string)) "stamp order" [ "small"; "big" ]
    (List.map snd ready)

let test_oracle_blocks_behind_unreleased_smaller_stamp () =
  let o = O.create ~owner:0 ~hold_local:0.02 in
  let o, _ = O.receive o ~now_local:1.00 ~stamp:(stamp 9 1) "big" in
  (* smaller stamp arrives later; its hold-back ends later *)
  let o, _ = O.receive o ~now_local:1.015 ~stamp:(stamp 2 2) "small" in
  (* at 1.02 "big" is released but "small" (stamp-smaller) is not: both wait *)
  let o, ready = O.due o ~now_local:1.02 in
  Alcotest.(check int) "big waits for small" 0 (List.length ready);
  let _, ready = O.due o ~now_local:1.035 in
  Alcotest.(check (list string)) "then both, in stamp order"
    [ "small"; "big" ] (List.map snd ready)

let test_oracle_ties_broken_by_origin () =
  let o = O.create ~owner:0 ~hold_local:0. in
  let o, _ = O.receive o ~now_local:0. ~stamp:(stamp 5 2) "from2" in
  let o, _ = O.receive o ~now_local:0. ~stamp:(stamp 5 1) "from1" in
  let _, ready = O.due o ~now_local:0. in
  Alcotest.(check (list string)) "origin breaks ties" [ "from1"; "from2" ]
    (List.map snd ready)

(* The sorted-list oracle the queue replaced, kept as the reference
   model: [pending] ascending by stamp, equal stamps in arrival order. *)
module Ref_oracle = struct
  type 'a held = {
    stamp : Consensus.Logical_clock.stamp;
    release_local : float;
    payload : 'a;
  }

  type 'a t = {
    owner : int;
    hold_local : float;
    counter : int;
    pending : 'a held list;
  }

  let create ~owner ~hold_local = { owner; hold_local; counter = 0; pending = [] }

  let next_stamp t =
    let counter = t.counter + 1 in
    ({ t with counter }, { Consensus.Logical_clock.counter; origin = t.owner })

  let insert_sorted held pending =
    let rec go = function
      | [] -> [ held ]
      | h :: rest ->
          if Consensus.Logical_clock.compare_stamp held.stamp h.stamp < 0 then
            held :: h :: rest
          else h :: go rest
    in
    go pending

  let receive t ~now_local ~stamp payload =
    let counter = Stdlib.max t.counter stamp.Consensus.Logical_clock.counter in
    let release_local = now_local +. t.hold_local in
    let held = { stamp; release_local; payload } in
    ({ t with counter; pending = insert_sorted held t.pending }, release_local)

  let due t ~now_local =
    let rec split acc = function
      | h :: rest when h.release_local <= now_local ->
          split ((h.stamp, h.payload) :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let ready, pending = split [] t.pending in
    ({ t with pending }, ready)

  let pending_count t = List.length t.pending

  let clock t = t.counter
end

(* One step of [prop_matches_reference]: [(kind, origin, offset, dt)]
   advances local time by [dt] ticks (0 keeps it), then
   - kind 0-1: receives a stamp from [origin] whose counter is
     [offset - 3] away from the clock (below it, at it or above it),
     or, for [offset = 0], an exact duplicate of the [origin]-th latest
     stamp received;
   - kind 2: calls [due];
   - kind 3: draws a fresh stamp.
   After every step both oracles must agree on what [due] returns, on
   [clock] and on [pending_count]; a final [due] drains them both. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"oracle queue matches the sorted-list reference"
    ~count:300
    QCheck.(
      pair (int_range 0 4)
        (list_of_size Gen.(0 -- 120)
           (quad (int_range 0 3) (int_range 0 4) (int_range 0 6)
              (int_range 0 3))))
    (fun (hold_ticks, ops) ->
      let tick = 0.005 in
      let hold_local = float_of_int hold_ticks *. tick in
      let same_stamp (a : Consensus.Logical_clock.stamp) b =
        Consensus.Logical_clock.compare_stamp a b = 0
      in
      let same_ready a b =
        List.length a = List.length b
        && List.for_all2
             (fun (sa, (pa : int)) (sb, pb) -> same_stamp sa sb && pa = pb)
             a b
      in
      let agree o r =
        O.clock o = Ref_oracle.clock r
        && O.pending_count o = Ref_oracle.pending_count r
      in
      let rec go o r now seen i = function
        | [] ->
            let o, ready = O.due o ~now_local:(now +. 1e9) in
            let r, ready' = Ref_oracle.due r ~now_local:(now +. 1e9) in
            same_ready ready ready' && agree o r
        | (kind, origin, offset, dt) :: rest ->
            let now = now +. (float_of_int dt *. tick) in
            if kind <= 1 then begin
              let stamp =
                match List.nth_opt seen origin with
                | Some s when offset = 0 -> s
                | _ ->
                    {
                      Consensus.Logical_clock.counter =
                        Stdlib.max 0 (O.clock o + offset - 3);
                      origin;
                    }
              in
              let o, release = O.receive o ~now_local:now ~stamp i in
              let r, release' = Ref_oracle.receive r ~now_local:now ~stamp i in
              Float.equal release release'
              && agree o r
              && go o r now (stamp :: seen) (i + 1) rest
            end
            else if kind = 2 then begin
              let o, ready = O.due o ~now_local:now in
              let r, ready' = Ref_oracle.due r ~now_local:now in
              same_ready ready ready' && agree o r
              && go o r now seen (i + 1) rest
            end
            else begin
              let o, s = O.next_stamp o in
              let r, s' = Ref_oracle.next_stamp r in
              same_stamp s s' && agree o r && go o r now seen (i + 1) rest
            end
      in
      let owner = 2 in
      go
        (O.create ~owner ~hold_local)
        (Ref_oracle.create ~owner ~hold_local)
        0. [] 0 ops)

(* The Section 5 property: two receivers of the same stable-period
   messages deliver them in the same order, whatever their (delta-bounded)
   receipt skew. *)
let prop_same_order_after_ts =
  QCheck.Test.make ~name:"oracle delivers in same order at all receivers"
    ~count:100
    QCheck.(pair int64 (int_range 2 30))
    (fun (seed, k) ->
      let rng = Sim.Prng.create seed in
      (* senders with Lamport clocks; message i sent at time i * gap by a
         random sender; all receipt delays <= delta; receivers see every
         message (stable period). *)
      let n_senders = 3 in
      let clocks =
        Array.init n_senders (fun owner ->
            Consensus.Logical_clock.create ~owner)
      in
      let gap = delta /. 2. in
      let msgs =
        List.init k (fun i ->
            let s = Sim.Prng.int rng n_senders in
            let send_time = float_of_int i *. gap in
            (* senders observe each other's messages within delta: model
               by having every clock observe the stamp delta after the
               send *)
            let stamp = Consensus.Logical_clock.tick clocks.(s) in
            Array.iter (fun c -> Consensus.Logical_clock.observe c stamp) clocks;
            (send_time, stamp, i))
      in
      let deliveries receiver_seed =
        let rng = Sim.Prng.create receiver_seed in
        let o = ref (O.create ~owner:9 ~hold_local:(2. *. delta)) in
        let receipts =
          List.map
            (fun (t, stamp, id) ->
              (t +. Sim.Prng.float rng delta, stamp, id))
            msgs
        in
        let receipts =
          List.sort (fun (a, _, _) (b, _, _) -> compare a b) receipts
        in
        let delivered = ref [] in
        List.iter
          (fun (t, stamp, id) ->
            let oo, _ = O.receive !o ~now_local:t ~stamp id in
            o := oo;
            (* poll for due messages at each receipt instant *)
            let oo, ready = O.due !o ~now_local:t in
            o := oo;
            delivered := List.rev_append (List.map snd ready) !delivered)
          receipts;
        let _, rest = O.due !o ~now_local:1e9 in
        List.rev !delivered @ List.map snd rest
      in
      deliveries 1L = deliveries 2L && deliveries 1L = deliveries 99L)

(* The boundary case the paper's Section 5 argument is really about:
   messages sent BEFORE stability (arbitrary stamps, arbitrary receipt
   times, possibly lost at some receivers) may be delivered in different
   orders at different processes — but the subsequence of messages sent
   AFTER stability must still come out in the same order everywhere.
   The proof hinges on hold-back-from-receipt >= hold-back-from-send:
   any stable message with a smaller stamp was sent before the bigger
   one's sender could have ticked past it, hence arrives before the
   bigger one's hold-back expires. *)
let prop_stable_subsequence_ordered =
  QCheck.Test.make
    ~name:"oracle: stable-period messages ordered despite pre-TS garbage"
    ~count:100
    QCheck.(triple int64 (int_range 3 15) (int_range 0 10))
    (fun (seed, k_stable, k_garbage) ->
      let rng = Sim.Prng.create seed in
      let n_senders = 3 in
      let clocks =
        Array.init n_senders (fun owner ->
            Consensus.Logical_clock.create ~owner)
      in
      (* pre-TS garbage: skew the senders' clocks arbitrarily and emit
         messages whose receipt times we will scatter per receiver *)
      let garbage =
        List.init k_garbage (fun i ->
            let s = Sim.Prng.int rng n_senders in
            Consensus.Logical_clock.observe clocks.(s)
              {
                Consensus.Logical_clock.counter = Sim.Prng.int rng 50;
                origin = s;
              };
            let stamp = Consensus.Logical_clock.tick clocks.(s) in
            (stamp, -(i + 1) (* negative payload marks garbage *)))
      in
      (* stable period starting at time 10: message i sent at 10 + i*gap,
         broadcast to all; every sender observes it within delta *)
      let gap = delta /. 3. in
      let stable =
        List.init k_stable (fun i ->
            let s = Sim.Prng.int rng n_senders in
            let send_time = 10. +. (float_of_int i *. gap) in
            let stamp = Consensus.Logical_clock.tick clocks.(s) in
            Array.iter
              (fun c -> Consensus.Logical_clock.observe c stamp)
              clocks;
            (send_time, stamp, i))
      in
      let deliveries receiver_seed =
        let rng = Sim.Prng.create receiver_seed in
        let o = ref (O.create ~owner:9 ~hold_local:(2. *. delta)) in
        (* garbage arrives at arbitrary times in [9, 10.2], and is lost
           with probability 1/2 — differently at each receiver *)
        let receipts =
          List.filter_map
            (fun (stamp, id) ->
              if Sim.Prng.bool rng 0.5 then None
              else Some (9. +. Sim.Prng.float rng 1.2, stamp, id))
            garbage
          @ List.map
              (fun (t, stamp, id) ->
                (t +. Sim.Prng.float rng delta, stamp, id))
              stable
        in
        let receipts =
          List.sort (fun (a, _, _) (b, _, _) -> compare a b) receipts
        in
        let delivered = ref [] in
        List.iter
          (fun (t, stamp, id) ->
            let oo, _ = O.receive !o ~now_local:t ~stamp id in
            let oo, ready = O.due oo ~now_local:t in
            o := oo;
            delivered := List.rev_append (List.map snd ready) !delivered)
          receipts;
        let _, rest = O.due !o ~now_local:1e9 in
        let all = List.rev !delivered @ List.map snd rest in
        (* project out the stable subsequence *)
        List.filter (fun id -> id >= 0) all
      in
      let d1 = deliveries 1L and d2 = deliveries 2L and d3 = deliveries 77L in
      d1 = d2 && d2 = d3
      && List.sort_uniq compare d1 = List.sort compare d1
      && List.length d1 = k_stable)

(* --- Modified B-Consensus ------------------------------------------------ *)

let run_bc ?(n = 5) ?(seed = 1L) ?(network = Sim.Network.silent_until_ts)
    ?(faults = Sim.Fault.none) ?tuning () =
  let sc =
    Sim.Scenario.make ~name:"bc" ~n ~ts ~delta ~seed ~network ~faults
      ~horizon:(ts +. (500. *. delta))
      ()
  in
  Sim.Engine.run sc
    (Bconsensus.Modified_b_consensus.protocol ?tuning ~n ~delta ~rho:0. ())

let test_bc_decides_and_agrees () =
  List.iter
    (fun seed ->
      let r = run_bc ~seed () in
      Alcotest.(check bool) "all decided + agree" true
        (Sim.Engine.all_decided r);
      Alcotest.(check bool) "validity" true
        (Harness.Measure.check_safety r = Ok ()))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_bc_lossy_network () =
  List.iter
    (fun seed ->
      let r = run_bc ~seed ~network:(Sim.Network.eventually_synchronous ()) () in
      Alcotest.(check bool) "decides under chaos" true
        (Sim.Engine.all_decided r))
    [ 1L; 2L; 3L ]

let test_bc_minority_down () =
  let n = 9 in
  let victims = Harness.Adversaries.faulty_minority ~n in
  let faults = Sim.Fault.make ~initially_down:victims [] in
  let r = run_bc ~n ~faults () in
  List.iter
    (fun p ->
      if not (List.mem p victims) then
        Alcotest.(check bool)
          (Printf.sprintf "p%d decided" p)
          true
          (r.Sim.Engine.decision_values.(p) <> None))
    (List.init n Fun.id)

let test_bc_latency_flat_in_n () =
  let lat n =
    let victims = Harness.Adversaries.faulty_minority ~n in
    let faults = Sim.Fault.make ~initially_down:victims [] in
    let r = run_bc ~n ~faults () in
    Harness.Measure.worst_latency r
      ~procs:
        (List.filter (fun p -> not (List.mem p victims)) (List.init n Fun.id))
      ~from_time:ts ~delta
  in
  let l3 = lat 3 and l33 = lat 33 in
  Alcotest.(check bool)
    (Printf.sprintf "flat (l3=%.1f l33=%.1f)" l3 l33)
    true
    (l33 <= Stdlib.max (3. *. l3) 12.)

let test_bc_restart () =
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.)
      ~restart_at:(ts +. (20. *. delta))
      2
  in
  let r =
    run_bc ~faults ~network:(Sim.Network.eventually_synchronous ()) ()
  in
  Alcotest.(check bool) "restarted process decides" true
    (r.Sim.Engine.decision_values.(2) <> None);
  Alcotest.(check bool) "agreement" true
    (r.Sim.Engine.agreement_violation = None)

let test_bc_zero_holdback_still_safe () =
  (* The hold-back buys latency only; safety must survive without it. *)
  let tuning =
    {
      (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
      hold_back = 0.;
    }
  in
  List.iter
    (fun seed ->
      let r = run_bc ~seed ~n:7 ~tuning () in
      Alcotest.(check bool) "agree with zero hold-back" true
        (r.Sim.Engine.agreement_violation = None);
      Alcotest.(check bool) "validity" true
        (Harness.Measure.check_safety r = Ok ()))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

let test_bc_nojump_variant () =
  (* The original (no-jump) shape still satisfies consensus; it is only
     more expensive (A3 measures the retransmission volume). *)
  let tuning =
    {
      (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
      jump = false;
    }
  in
  List.iter
    (fun seed ->
      let r = run_bc ~seed ~n:5 ~tuning () in
      Alcotest.(check bool) "nojump decides + agrees" true
        (Sim.Engine.all_decided r))
    [ 1L; 2L; 3L ];
  (* straggler catch-up without jumping *)
  let r =
    run_bc ~tuning
      ~network:(Sim.Network.partitioned_until_ts [ [ 0; 1; 2; 3 ] ])
      ()
  in
  Alcotest.(check bool) "straggler decides without jumping" true
    (r.Sim.Engine.decision_values.(4) <> None)

let test_bc_estimates_converge_to_decision () =
  (* once anyone decides v, every process's estimate must be v (the
     est-adoption rule in maybe_finish_round): check final states *)
  List.iter
    (fun seed ->
      let r = run_bc ~seed ~n:7 () in
      let decided =
        match r.Sim.Engine.decision_values.(0) with
        | Some v -> v
        | None -> Alcotest.fail "no decision"
      in
      Array.iter
        (function
          | Some st ->
              Alcotest.(check int) "estimate = decided value" decided
                (Bconsensus.Modified_b_consensus.estimate st)
          | None -> Alcotest.fail "down")
        r.Sim.Engine.final_states)
    [ 1L; 2L; 3L ]

let test_bc_tuning_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative hold-back" true
    (bad (fun () ->
         let tuning =
           {
             (Bconsensus.Modified_b_consensus.default_tuning ~delta) with
             hold_back = -1.;
           }
         in
         Bconsensus.Modified_b_consensus.protocol ~tuning ~n:3 ~delta ~rho:0.
           ()));
  Alcotest.(check bool) "bad rho" true
    (bad (fun () ->
         Bconsensus.Modified_b_consensus.protocol ~n:3 ~delta ~rho:1.5 ()))

let suite =
  [
    Alcotest.test_case "oracle stamps increase" `Quick
      test_oracle_stamps_increase;
    Alcotest.test_case "oracle receive advances clock" `Quick
      test_oracle_receive_advances_clock;
    Alcotest.test_case "oracle hold-back" `Quick test_oracle_holdback;
    Alcotest.test_case "oracle stamp order" `Quick test_oracle_stamp_order;
    Alcotest.test_case "oracle blocks behind smaller stamp" `Quick
      test_oracle_blocks_behind_unreleased_smaller_stamp;
    Alcotest.test_case "oracle ties by origin" `Quick
      test_oracle_ties_broken_by_origin;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_same_order_after_ts;
    QCheck_alcotest.to_alcotest prop_stable_subsequence_ordered;
    Alcotest.test_case "b-consensus decides and agrees" `Quick
      test_bc_decides_and_agrees;
    Alcotest.test_case "b-consensus under lossy network" `Quick
      test_bc_lossy_network;
    Alcotest.test_case "b-consensus minority down" `Quick
      test_bc_minority_down;
    Alcotest.test_case "b-consensus latency flat in n" `Quick
      test_bc_latency_flat_in_n;
    Alcotest.test_case "b-consensus restart" `Quick test_bc_restart;
    Alcotest.test_case "b-consensus safe with zero hold-back" `Quick
      test_bc_zero_holdback_still_safe;
    Alcotest.test_case "b-consensus no-jump variant" `Quick
      test_bc_nojump_variant;
    Alcotest.test_case "b-consensus estimates converge" `Quick
      test_bc_estimates_converge_to_decision;
    Alcotest.test_case "b-consensus tuning validation" `Quick
      test_bc_tuning_validation;
  ]
