open Consensus

type t =
  | P1a of { mbal : Ballot.t }
  | P1b of { mbal : Ballot.t; vote : Vote.t }
  | P2a of { mbal : Ballot.t; value : Types.value }
  | P2b of { mbal : Ballot.t; value : Types.value }
  | Decision of { value : Types.value }

let mbal = function
  | P1a { mbal } | P1b { mbal; _ } | P2a { mbal; _ } | P2b { mbal; _ } ->
      Some mbal
  | Decision _ -> None

let info = function
  | P1a { mbal } -> Printf.sprintf "1a(b%d)" mbal
  | P1b { mbal; vote } ->
      Printf.sprintf "1b(b%d,%s)" mbal (Vote.to_string vote)
  | P2a { mbal; value } -> Printf.sprintf "2a(b%d,v%d)" mbal value
  | P2b { mbal; value } -> Printf.sprintf "2b(b%d,v%d)" mbal value
  | Decision { value } -> Printf.sprintf "decision(v%d)" value

let payload ~n = function
  | P1a { mbal } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:1 "1a"
  | P1b { mbal; vote } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:1
        ~detail:(Vote.to_string vote)
        "1b"
  | P2a { mbal; value } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:2 ~value "2a"
  | P2b { mbal; value } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:2 ~value "2b"
  | Decision { value } -> Sim.Trace.payload ~value "decision"
