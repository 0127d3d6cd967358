open Consensus

type ivote = { vbal : Ballot.t; vcmd : Command.t }

type t =
  | M1a of { mbal : Ballot.t }
  | M1b of {
      mbal : Ballot.t;
      votes : (int * ivote) list;
      chosen_upto : int;
    }
  | M2a of { mbal : Ballot.t; instance : int; cmd : Command.t }
  | M2b of { mbal : Ballot.t; instance : int; cmd : Command.t }
  | Forward of { cmd : Command.t }
  | Chosen_digest of { upto : int }
  | Chosen of { instance : int; cmd : Command.t }

let mbal = function
  | M1a { mbal } | M1b { mbal; _ } | M2a { mbal; _ } | M2b { mbal; _ } ->
      Some mbal
  | Forward _ | Chosen_digest _ | Chosen _ -> None

let info = function
  | M1a { mbal } -> Printf.sprintf "1a(b%d)" mbal
  | M1b { mbal; votes; chosen_upto } ->
      Printf.sprintf "1b(b%d,%d votes,upto %d)" mbal (List.length votes)
        chosen_upto
  | M2a { mbal; instance; cmd } ->
      Printf.sprintf "2a(b%d,i%d,%s)" mbal instance (Command.info cmd)
  | M2b { mbal; instance; cmd } ->
      Printf.sprintf "2b(b%d,i%d,%s)" mbal instance (Command.info cmd)
  | Forward { cmd } -> Printf.sprintf "forward(%s)" (Command.info cmd)
  | Chosen_digest { upto } -> Printf.sprintf "digest(upto %d)" upto
  | Chosen { instance; cmd } ->
      Printf.sprintf "chosen(i%d,%s)" instance (Command.info cmd)

let payload ~n = function
  | M1a { mbal } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:1 "1a"
  | M1b { mbal; votes; chosen_upto } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:1
        ~detail:
          (let b = Buffer.create 24 in
           Sim.Numfmt.add_int b (List.length votes);
           Buffer.add_string b " votes,upto ";
           Sim.Numfmt.add_int b chosen_upto;
           Buffer.contents b)
        "1b"
  | M2a { mbal; instance; cmd } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:2 ~round:instance ~detail:(Command.info cmd) "2a"
  | M2b { mbal; instance; cmd } ->
      Sim.Trace.payload ~ballot:mbal ~session:(Ballot.session ~n mbal)
        ~phase:2 ~round:instance ~detail:(Command.info cmd) "2b"
  | Forward { cmd } -> Sim.Trace.payload ~detail:(Command.info cmd) "forward"
  | Chosen_digest { upto } ->
      Sim.Trace.payload ~detail:(Sim.Numfmt.prefixed "upto " upto) "digest"
  | Chosen { instance; cmd } ->
      Sim.Trace.payload ~round:instance ~detail:(Command.info cmd) "chosen"
