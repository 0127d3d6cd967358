(* A uniform conformance matrix: every correct single-decree protocol in
   [Harness.Protocols]' table, run over the same grid of networks, fault
   scripts and seeds, must satisfy termination-after-TS, agreement and
   validity.

   This complements the per-protocol suites (which test
   protocol-specific behaviour) with breadth: the same conditions for
   everyone. *)

let delta = 0.01

let ts = 0.5

let scenario ~n ~seed ~network ~faults =
  Sim.Scenario.make ~name:"conformance" ~n ~ts ~delta ~seed ~network ~faults
    ~horizon:(ts +. (500. *. delta))
    ()

let networks =
  [
    ("lossy", Sim.Network.eventually_synchronous ());
    ("silent", Sim.Network.silent_until_ts);
    ("deterministic", Sim.Network.deterministic_after_ts);
    ("sync", Sim.Network.always_synchronous);
    ( "duplicating",
      Sim.Network.with_duplication ~prob:0.3
        (Sim.Network.eventually_synchronous ()) );
  ]

let fault_grid ~n =
  [
    ("fault-free", Sim.Fault.none, []);
    ( "minority-down",
      Sim.Fault.make ~initially_down:(Harness.Adversaries.faulty_minority ~n) [],
      Harness.Adversaries.faulty_minority ~n );
    ( "crash+restart",
      Sim.Fault.crash_then_restart ~crash_at:(ts /. 2.)
        ~restart_at:(ts +. (30. *. delta))
        (n - 1),
      [] );
  ]

let check_grid (entry : Harness.Protocols.entry) () =
  let n = 5 in
  List.iter
    (fun (net_name, network) ->
      List.iter
        (fun (fault_name, faults, excluded) ->
          List.iter
            (fun seed ->
              let label =
                Printf.sprintf "%s/%s/%s/seed=%Ld" entry.name net_name
                  fault_name seed
              in
              match entry.build ~n ~delta ~ts ~rho:0. ~faults () with
              | Harness.Protocols.Packed { protocol; _ } ->
                  let r =
                    Sim.Engine.run (scenario ~n ~seed ~network ~faults) protocol
                  in
                  (match Harness.Measure.check_safety r with
                  | Ok () -> ()
                  | Error msg -> Alcotest.fail (label ^ ": " ^ msg));
                  List.iter
                    (fun p ->
                      if not (List.mem p excluded) then
                        Alcotest.(check bool)
                          (Printf.sprintf "%s: p%d decided" label p)
                          true
                          (r.Sim.Engine.decision_values.(p) <> None))
                    (List.init n Fun.id))
            [ 11L; 22L ])
        (fault_grid ~n))
    networks

(* Every correct protocol of the table; the A1 ablation is broken by
   design. *)
let suite =
  List.filter_map
    (fun (entry : Harness.Protocols.entry) ->
      if entry.correct then
        Some
          (Alcotest.test_case
             (entry.name ^ ": full grid (5 nets x 3 faults x 2 seeds)")
             `Quick (check_grid entry))
      else None)
    Harness.Protocols.table
