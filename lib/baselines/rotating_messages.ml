open Consensus

type t =
  | Estimate of { round : int; est : Types.value; ts : int }
  | Propose of { round : int; value : Types.value }
  | Ack of { round : int; value : Types.value }
  | Decision of { value : Types.value }

let round_of = function
  | Estimate { round; _ } | Propose { round; _ } | Ack { round; _ } ->
      Some round
  | Decision _ -> None

let info = function
  | Estimate { round; est; ts } -> Printf.sprintf "est(r%d,v%d,ts%d)" round est ts
  | Propose { round; value } -> Printf.sprintf "propose(r%d,v%d)" round value
  | Ack { round; value } -> Printf.sprintf "ack(r%d,v%d)" round value
  | Decision { value } -> Printf.sprintf "decision(v%d)" value

let payload = function
  | Estimate { round; est; ts } ->
      Sim.Trace.payload ~round ~value:est
        ~detail:(Sim.Numfmt.prefixed "ts" ts)
        "est"
  | Propose { round; value } -> Sim.Trace.payload ~round ~value "propose"
  | Ack { round; value } -> Sim.Trace.payload ~round ~value "ack"
  | Decision { value } -> Sim.Trace.payload ~value "decision"
