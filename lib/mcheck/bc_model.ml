type msg =
  | First of { src : int; round : int; value : int }
  | Report of { src : int; round : int; value : int }
  | Lock of { src : int; round : int; value : int option }

type proc = {
  round : int;
  est : int;
  reported : int option;
  locked : int option option;
  decided : int;
}

(* Tag order, then fields left-to-right: identical to the polymorphic
   order, but monomorphic, so a new constructor is a compile error here
   rather than a silent reorder (lint R6). *)
let compare_msg a b =
  let tag = function First _ -> 0 | Report _ -> 1 | Lock _ -> 2 in
  match (a, b) with
  | ( First { src = s1; round = r1; value = v1 },
      First { src = s2; round = r2; value = v2 } )
  | ( Report { src = s1; round = r1; value = v1 },
      Report { src = s2; round = r2; value = v2 } ) ->
      let c = Int.compare s1 s2 in
      if c <> 0 then c
      else
        let c = Int.compare r1 r2 in
        if c <> 0 then c else Int.compare v1 v2
  | ( Lock { src = s1; round = r1; value = v1 },
      Lock { src = s2; round = r2; value = v2 } ) ->
      let c = Int.compare s1 s2 in
      if c <> 0 then c
      else
        let c = Int.compare r1 r2 in
        if c <> 0 then c else Option.compare Int.compare v1 v2
  | _ -> Int.compare (tag a) (tag b)

module Msgset = Set.Make (struct
  type t = msg

  let compare = compare_msg
end)

type state = { procs : proc array; msgs : Msgset.t }

type mutation = Decide_on_any_some | Lock_on_first_report

type config = {
  n : int;
  proposals : int array;
  max_round : int;
  mutation : mutation option;
}

let initial cfg =
  {
    procs =
      Array.init cfg.n (fun p ->
          {
            round = 0;
            est = cfg.proposals.(p);
            reported = None;
            locked = None;
            decided = -1;
          });
    msgs = Msgset.empty;
  }

let majority n = (n / 2) + 1

(* Canonical sorted-list key (set values are not canonical); the
   exact-mode visited key, mirrored by the fingerprint stream below. *)
let key (st : state) = (Array.to_list st.procs, Msgset.elements st.msgs)

(* Canonical, prefix-decodable word stream: lengths before sections,
   explicit tags before every option/variant payload, messages in
   Msgset (sorted) order. *)
let fold_canonical f acc st =
  let fold_opt f acc = function None -> f acc 0 | Some v -> f (f acc 1) v in
  let acc = f acc (Array.length st.procs) in
  let acc =
    Array.fold_left
      (fun acc p ->
        let acc = f acc p.round in
        let acc = f acc p.est in
        let acc = fold_opt f acc p.reported in
        let acc =
          match p.locked with
          | None -> f acc 0
          | Some None -> f acc 1
          | Some (Some v) -> f (f acc 2) v
        in
        f acc p.decided)
      acc st.procs
  in
  let acc = f acc (Msgset.cardinal st.msgs) in
  Msgset.fold
    (fun m acc ->
      match m with
      | First { src; round; value } -> f (f (f (f acc 0) src) round) value
      | Report { src; round; value } -> f (f (f (f acc 1) src) round) value
      | Lock { src; round; value } ->
          fold_opt f (f (f (f acc 2) src) round) value)
    st.msgs acc

let fingerprint st =
  Fingerprint.(finish (fold_canonical add (hasher ()) st))

let with_proc st p proc =
  let procs = Array.copy st.procs in
  procs.(p) <- proc;
  { st with procs }

let add_msg st m =
  if Msgset.mem m st.msgs then None
  else Some { st with msgs = Msgset.add m st.msgs }

let procs cfg = List.init cfg.n Fun.id

(* all k-subsets of a list *)
let rec subsets k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
      if k = 0 then [ [] ]
      else List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* 1. Boot / retransmit: broadcast the current estimate into the oracle
   stream. *)
let wabcasts cfg st =
  List.filter_map
    (fun p ->
      let pr = st.procs.(p) in
      add_msg st (First { src = p; round = pr.round; value = pr.est }))
    (procs cfg)

(* 2. Report: the adversary hands p *any* round-r First as "the first
   delivered" — a superset of every oracle behaviour. *)
let reports cfg st =
  List.concat_map
    (fun p ->
      let pr = st.procs.(p) in
      if pr.reported <> None then []
      else
        Msgset.fold
          (fun m acc ->
            match m with
            | First { round; value; _ } when round = pr.round -> (
                let st = with_proc st p { pr with reported = Some value } in
                match
                  add_msg st (Report { src = p; round = pr.round; value })
                with
                | Some st' -> st' :: acc
                | None -> st :: acc)
            | _ -> acc)
          st.msgs [])
    (procs cfg)

(* 3. Lock: the first majority of reports fixes the lock value (all
   majority subsets explored). *)
let locks cfg st =
  (* one scratch table per call, reset per process *)
  let by_sender = Hashtbl.create 8 in
  List.concat_map
    (fun p ->
      let pr = st.procs.(p) in
      if pr.locked <> None then []
      else begin
        Hashtbl.reset by_sender;
        Msgset.iter
          (function
            | Report { src; round; value } when round = pr.round ->
                Hashtbl.replace by_sender src value
            | _ -> ())
          st.msgs;
        let senders = Sim.Sorted_tbl.bindings ~compare:Int.compare by_sender in
        List.filter_map
          (fun subset ->
            let lv =
              match subset with
              | [] -> None
              | (_, v0) :: rest -> (
                  match cfg.mutation with
                  | Some Lock_on_first_report -> Some v0
                  | _ ->
                      if List.for_all (fun (_, v) -> v = v0) rest then Some v0
                      else None)
            in
            let st = with_proc st p { pr with locked = Some lv } in
            match add_msg st (Lock { src = p; round = pr.round; value = lv }) with
            | Some st' -> Some st'
            | None -> Some st)
          (subsets (majority cfg.n) senders)
      end)
    (procs cfg)

(* 4. Finish: a majority of locks ends the round — decide on all-Some,
   adopt any Some, else fall back to the reported (oracle) value. *)
let finishes cfg st =
  (* group lock entries by round once per call, instead of rescanning
     the whole message set once per process; the per-round cons order is
     the same as the per-process fold it replaces *)
  let locks_by_round : (int, (int * int option) list) Hashtbl.t =
    Hashtbl.create 8
  in
  Msgset.iter
    (function
      | Lock { src; round; value } ->
          let prev =
            match Hashtbl.find_opt locks_by_round round with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace locks_by_round round ((src, value) :: prev)
      | _ -> ())
    st.msgs;
  List.concat_map
    (fun p ->
      let pr = st.procs.(p) in
      let lock_entries =
        match Hashtbl.find_opt locks_by_round pr.round with
        | Some l -> l
        | None -> []
      in
      List.filter_map
        (fun subset ->
          let somes = List.filter_map snd subset in
          let all_some =
            match cfg.mutation with
            | Some Decide_on_any_some -> somes <> []
            | Some Lock_on_first_report | None ->
                List.length somes = List.length subset
          in
          let pr' =
            match somes with
            | v :: _ when all_some ->
                {
                  pr with
                  est = v;
                  decided = (if pr.decided < 0 then v else pr.decided);
                }
            | v :: _ -> { pr with est = v }
            | [] -> (
                match pr.reported with
                | Some v -> { pr with est = v }
                | None -> pr)
          in
          let pr' =
            if pr.round + 1 <= cfg.max_round then
              {
                pr' with
                round = pr.round + 1;
                reported = None;
                locked = None;
              }
            else pr'
          in
          if pr' = pr then None else Some (with_proc st p pr'))
        (subsets (majority cfg.n) lock_entries))
    (procs cfg)

(* 5. Jump: receipt of a higher-round message lets p enter that round
   directly. *)
let jumps cfg st =
  (* distinct in-cap rounds are collected once per call (first-encounter
     order, as before) and filtered per process, instead of rescanning
     the message set once per process *)
  let all_rounds =
    Msgset.fold
      (fun m acc ->
        let r =
          match m with
          | First { round; _ } | Report { round; _ } | Lock { round; _ } ->
              round
        in
        if r <= cfg.max_round && not (List.mem r acc) then r :: acc else acc)
      st.msgs []
  in
  List.concat_map
    (fun p ->
      let pr = st.procs.(p) in
      List.filter_map
        (fun r ->
          if r > pr.round then
            Some
              (with_proc st p
                 { pr with round = r; reported = None; locked = None })
          else None)
        all_rounds)
    (procs cfg)

let successors cfg st =
  wabcasts cfg st @ reports cfg st @ locks cfg st @ finishes cfg st
  @ jumps cfg st

(* --- properties ------------------------------------------------------- *)

let agreement st =
  let decided =
    Array.to_list st.procs
    |> List.filter_map (fun p ->
           if p.decided >= 0 then Some p.decided else None)
  in
  match decided with
  | [] -> true
  | v :: rest -> List.for_all (( = ) v) rest

let validity cfg st =
  Array.for_all
    (fun p -> p.decided < 0 || Array.exists (( = ) p.decided) cfg.proposals)
    st.procs

let lock_uniqueness st =
  let somes = Hashtbl.create 8 in
  try
    Msgset.iter
      (function
        | Lock { round; value = Some v; _ } -> (
            match Hashtbl.find_opt somes round with
            | Some v' when v' <> v -> raise Exit
            | Some _ -> ()
            | None -> Hashtbl.add somes round v)
        | _ -> ())
      st.msgs;
    true
  with Exit -> false

let pp_state fmt st =
  Array.iteri
    (fun i p ->
      Format.fprintf fmt "p%d{r=%d est=%d rep=%s lock=%s dec=%d} " i p.round
        p.est
        (match p.reported with Some v -> string_of_int v | None -> "-")
        (match p.locked with
        | Some (Some v) -> string_of_int v
        | Some None -> "?"
        | None -> "-")
        p.decided)
    st.procs;
  Format.fprintf fmt "| %d msgs" (Msgset.cardinal st.msgs)
