type protocol =
  | Modified_paxos
  | Ungated_paxos
  | Traditional_paxos
  | Rotating_coordinator
  | B_consensus

type packed =
  | Packed : {
      protocol : ('msg, 'state) Sim.Engine.protocol;
      inject : (src:int -> session:int -> 'msg) option;
      timer_bounds : (float * float) option;
    }
      -> packed

type entry = {
  protocol : protocol;
  name : string;
  correct : bool;
  takes_injections : bool;
  covers_restarts : bool;
  liveness_budget : n:int -> injections:int -> float;
  build :
    ?sigma:float ->
    ?epsilon:float ->
    n:int ->
    delta:float ->
    ts:float ->
    rho:float ->
    faults:Sim.Fault.t ->
    unit ->
    packed;
}

(* Modified Paxos, and with [session_gate = false] the A1 ablation. *)
let dgl protocol name ~session_gate =
  let build ?sigma ?epsilon ~n ~delta ~ts:_ ~rho ~faults:_ () =
    let cfg = Dgl.Config.make ?sigma ?epsilon ~rho ~n ~delta () in
    let options = { Dgl.Modified_paxos.default_options with session_gate } in
    let inject ~src ~session =
      Dgl.Messages.P1a
        { mbal = Consensus.Ballot.of_session ~n ~proc:src session }
    in
    Packed
      {
        protocol = Dgl.Modified_paxos.protocol ~options cfg;
        inject = Some inject;
        timer_bounds = Some (delta, cfg.Dgl.Config.sigma);
      }
  in
  {
    protocol;
    name;
    correct = session_gate;
    takes_injections = true;
    covers_restarts = true;
    liveness_budget = (fun ~n:_ ~injections:_ -> 60.);
    build;
  }

let traditional_paxos ?sigma:_ ?epsilon:_ ~n ~delta ~ts ~rho:_ ~faults () =
  let oracle = Baselines.Leader_election.make ~n ~ts ~delta ~faults () in
  let inject ~src ~session =
    Baselines.Paxos_messages.P1a
      { mbal = Consensus.Ballot.of_session ~n ~proc:src session }
  in
  Packed
    {
      protocol = Baselines.Traditional_paxos.protocol ~n ~delta ~oracle ();
      inject = Some inject;
      timer_bounds = None;
    }

(* No obsolete 1a exists for the round-based protocols, and their
   timers have no bounds to check. *)
let round_based protocol =
  Packed { protocol; inject = None; timer_bounds = None }

(* Budgets are deliberately loose multiples of each protocol's decision
   bound: tight enough that the A1 ungated ablation blows through them
   under high-session injections, loose enough that the correct
   protocols never do (a false positive would break `dev check`).
   Traditional Paxos gets the paper's O(N delta) allowance — one extra
   retry round per obsolete ballot and per failed leader candidate.

   The paper bounds restart recovery only for the modified algorithms
   (Section 4, "Process Restarts"); for the baselines a restarted
   process may legitimately idle until someone speaks to it. *)
let entry = function
  | Modified_paxos -> dgl Modified_paxos "modified-paxos" ~session_gate:true
  | Ungated_paxos -> dgl Ungated_paxos "ungated-paxos" ~session_gate:false
  | Traditional_paxos ->
      {
        protocol = Traditional_paxos;
        name = "traditional-paxos";
        correct = true;
        takes_injections = true;
        covers_restarts = false;
        liveness_budget =
          (fun ~n ~injections ->
            40. +. (8. *. float_of_int injections) +. (4. *. float_of_int n));
        build = traditional_paxos;
      }
  | Rotating_coordinator ->
      {
        protocol = Rotating_coordinator;
        name = "rotating-coordinator";
        correct = true;
        takes_injections = false;
        covers_restarts = false;
        liveness_budget =
          (fun ~n ~injections:_ -> 40. +. (10. *. float_of_int n));
        build =
          (fun ?sigma:_ ?epsilon:_ ~n ~delta ~ts:_ ~rho:_ ~faults:_ () ->
            round_based (Baselines.Rotating_coordinator.protocol ~n ~delta ()));
      }
  | B_consensus ->
      {
        protocol = B_consensus;
        name = "b-consensus";
        correct = true;
        takes_injections = false;
        covers_restarts = false;
        liveness_budget = (fun ~n:_ ~injections:_ -> 80.);
        build =
          (fun ?sigma:_ ?epsilon:_ ~n ~delta ~ts:_ ~rho ~faults:_ () ->
            round_based
              (Bconsensus.Modified_b_consensus.protocol ~n ~delta ~rho ()));
      }

let table =
  List.map entry
    [
      Modified_paxos; Ungated_paxos; Traditional_paxos; Rotating_coordinator;
      B_consensus;
    ]

let name p = (entry p).name

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_map
    (fun e -> if String.equal e.name s then Some e.protocol else None)
    table
