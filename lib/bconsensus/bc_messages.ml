open Consensus

type t =
  | First of { stamp : Logical_clock.stamp; round : int; value : Types.value }
  | Report of { round : int; value : Types.value }
  | Lock of { round : int; value : Types.value option }
  | Decision of { value : Types.value }

let round_of = function
  | First { round; _ } | Report { round; _ } | Lock { round; _ } -> Some round
  | Decision _ -> None

let info = function
  | First { stamp; round; value } ->
      Printf.sprintf "first(r%d,v%d,@%s)" round value
        (Logical_clock.stamp_to_string stamp)
  | Report { round; value } -> Printf.sprintf "report(r%d,v%d)" round value
  | Lock { round; value } -> (
      match value with
      | Some v -> Printf.sprintf "lock(r%d,v%d)" round v
      | None -> Printf.sprintf "lock(r%d,?)" round)
  | Decision { value } -> Printf.sprintf "decision(v%d)" value

let payload = function
  | First { stamp; round; value } ->
      Sim.Trace.payload ~round ~value
        ~detail:("@" ^ Logical_clock.stamp_to_string stamp)
        "first"
  | Report { round; value } -> Sim.Trace.payload ~round ~value "report"
  | Lock { round; value } -> (
      match value with
      | Some value -> Sim.Trace.payload ~round ~value "lock"
      | None -> Sim.Trace.payload ~round ~detail:"?" "lock")
  | Decision { value } -> Sim.Trace.payload ~value "decision"
