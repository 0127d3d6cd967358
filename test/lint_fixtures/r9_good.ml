(* R9 clean: handlers build text in the reusable ctx scratch buffer via
   Numfmt.add_int and grow lists by cons, not append. *)
let handle_vote ctx st votes v =
  let buf = Sim.Scratch.buffer (Engine.scratch ctx) in
  Buffer.add_string buf "vote:";
  Sim.Numfmt.add_int buf v;
  (Buffer.contents buf, v :: votes, st)

let step st log entry = { st with log = entry :: log }

let on_message _ctx st m = m :: st
