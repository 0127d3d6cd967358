type stamp = { counter : int; origin : Types.proc_id }

type t = { owner : Types.proc_id; mutable counter : int }

let create ~owner = { owner; counter = 0 }

let tick t =
  t.counter <- t.counter + 1;
  { counter = t.counter; origin = t.owner }

let observe t (stamp : stamp) =
  if stamp.counter > t.counter then t.counter <- stamp.counter

let current t = t.counter

let compare_stamp (a : stamp) (b : stamp) =
  let c = Int.compare a.counter b.counter in
  if c <> 0 then c else Int.compare a.origin b.origin

let stamp_to_string (s : stamp) =
  let b = Buffer.create 16 in
  Sim.Numfmt.add_int b s.counter;
  Buffer.add_char b '.';
  Sim.Numfmt.add_int b s.origin;
  Buffer.contents b
