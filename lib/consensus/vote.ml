type t = { vbal : Ballot.t; vval : Types.value }

let none = { vbal = Ballot.none; vval = Types.no_value }

let is_none t = t.vbal = Ballot.none

let make ~vbal ~vval = { vbal; vval }

let max_vote votes =
  List.fold_left
    (fun best v -> if Ballot.compare v.vbal best.vbal > 0 then v else best)
    none votes

let choose ~fallback votes =
  let best = max_vote votes in
  if is_none best then fallback else best.vval

(* "vote{<Ballot.pp vbal>=<vval>}", built without [Format]: it is the
   detail of every traced phase-1b message. *)
let to_string t =
  if is_none t then "vote:none"
  else begin
    let b = Buffer.create 24 in
    Buffer.add_string b "vote{b";
    Sim.Numfmt.add_int b t.vbal;
    Buffer.add_char b '=';
    Sim.Numfmt.add_int b t.vval;
    Buffer.add_char b '}';
    Buffer.contents b
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
