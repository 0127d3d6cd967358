open Consensus

type 'a held = {
  stamp : Logical_clock.stamp;
  release_local : float;
  payload : 'a;
}

(* The held messages, in (stamp, arrival) order, as two sorted lists:
   [front] ascending and [back] descending.  Every message in [back]
   arrived after every message in [front], which is what keeps equal
   stamps in arrival order across the two.  A new message goes into
   [back] after a walk over the messages with larger stamps only — few,
   since fresh stamps sit near the maximum — and [back_min] (the first
   of [back]'s smallest messages) tells [due] when [back] must be merged
   into [front] because the smallest held message is there. *)
type 'a t = {
  owner : Types.proc_id;
  hold_local : float;
  counter : int;
  front : 'a held list;
  back : 'a held list;
  back_min : 'a held option;  (* [None] iff [back = []] *)
}

let create ~owner ~hold_local =
  if hold_local < 0. then
    invalid_arg "Ordering_oracle.create: negative hold-back";
  { owner; hold_local; counter = 0; front = []; back = []; back_min = None }

let next_stamp t =
  let counter = t.counter + 1 in
  ( { t with counter },
    { Logical_clock.counter; origin = t.owner } )

(* Insert [held] into the descending [back], in front of every message
   whose stamp is no larger than its own: on equal stamps those arrived
   earlier, so they rank before [held]. *)
let rec insert_desc held = function
  | h :: rest when Logical_clock.compare_stamp h.stamp held.stamp > 0 ->
      h :: insert_desc held rest
  | back -> held :: back

let receive t ~now_local ~stamp payload =
  let counter = Stdlib.max t.counter stamp.Logical_clock.counter in
  let release_local = now_local +. t.hold_local in
  let held = { stamp; release_local; payload } in
  let back_min =
    match t.back_min with
    | Some m when Logical_clock.compare_stamp m.stamp stamp <= 0 -> t.back_min
    | _ -> Some held
  in
  ( { t with counter; back = insert_desc held t.back; back_min },
    release_local )

(* Merge two ascending lists; on equal stamps [front]'s message, the
   earlier arrival, comes first. *)
let rec merge front back =
  match (front, back) with
  | [], l | l, [] -> l
  | f :: front', b :: back' ->
      if Logical_clock.compare_stamp f.stamp b.stamp <= 0 then
        f :: merge front' back
      else b :: merge front back'

(* Whether [back]'s smallest message [m] comes before all of [front]. *)
let precedes_front m = function
  | [] -> true
  | f :: _ -> Logical_clock.compare_stamp m.stamp f.stamp < 0

let due t ~now_local =
  (* Walk from the smallest stamp; stop at the first message still under
     hold-back — everything behind it must wait to preserve order. *)
  let rec go acc front back back_min =
    match back_min with
    | Some m when precedes_front m front ->
        if m.release_local <= now_local then
          go acc (merge front (List.rev back)) [] None
        else stop acc front back back_min
    | _ -> (
        match front with
        | f :: rest when f.release_local <= now_local ->
            go ((f.stamp, f.payload) :: acc) rest back back_min
        | _ -> stop acc front back back_min)
  and stop acc front back back_min =
    match acc with
    | [] -> (t, [])
    | _ -> ({ t with front; back; back_min }, List.rev acc)
  in
  go [] t.front t.back t.back_min

let pending_count t = List.length t.front + List.length t.back

let clock t = t.counter
