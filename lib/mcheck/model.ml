type msg =
  | M1a of { src : int; bal : int }
  | M1b of { src : int; bal : int; vbal : int; vval : int }
  | M2a of { bal : int; value : int }
  | M2b of { src : int; bal : int; value : int }

type proc = { mbal : int; vbal : int; vval : int; decided : int }

(* Same order as the polymorphic compare, made monomorphic (lint R6). *)
let compare_msg a b =
  let tag = function M1a _ -> 0 | M1b _ -> 1 | M2a _ -> 2 | M2b _ -> 3 in
  match (a, b) with
  | M1a { src = s1; bal = b1 }, M1a { src = s2; bal = b2 } ->
      let c = Int.compare s1 s2 in
      if c <> 0 then c else Int.compare b1 b2
  | ( M1b { src = s1; bal = b1; vbal = vb1; vval = vv1 },
      M1b { src = s2; bal = b2; vbal = vb2; vval = vv2 } ) ->
      let c = Int.compare s1 s2 in
      if c <> 0 then c
      else
        let c = Int.compare b1 b2 in
        if c <> 0 then c
        else
          let c = Int.compare vb1 vb2 in
          if c <> 0 then c else Int.compare vv1 vv2
  | M2a { bal = b1; value = v1 }, M2a { bal = b2; value = v2 } ->
      let c = Int.compare b1 b2 in
      if c <> 0 then c else Int.compare v1 v2
  | ( M2b { src = s1; bal = b1; value = v1 },
      M2b { src = s2; bal = b2; value = v2 } ) ->
      let c = Int.compare s1 s2 in
      if c <> 0 then c
      else
        let c = Int.compare b1 b2 in
        if c <> 0 then c else Int.compare v1 v2
  | _ -> Int.compare (tag a) (tag b)

module Msgset = Set.Make (struct
  type t = msg

  let compare = compare_msg
end)

type state = { procs : proc array; msgs : Msgset.t }

type config = {
  n : int;
  proposals : int array;
  max_session : int;
  gate : bool;
}

let initial cfg =
  {
    procs =
      Array.init cfg.n (fun p ->
          { mbal = p; vbal = -1; vval = -1; decided = -1 });
    msgs = Msgset.empty;
  }

let session ~n b = b / n

let owner ~n b = b mod n

let majority n = (n / 2) + 1

let sender_of ~n = function
  | M1a { src; _ } | M1b { src; _ } | M2b { src; _ } -> src
  | M2a { bal; _ } -> owner ~n bal

let bal_of = function
  | M1a { bal; _ } | M1b { bal; _ } | M2a { bal; _ } | M2b { bal; _ } -> bal

(* Distinct processes that provably reached session [s]: they sent a
   message carrying a session-[s] ballot. *)
let senders_in_session cfg msgs s =
  Msgset.fold
    (fun m acc ->
      if session ~n:cfg.n (bal_of m) = s then
        let src = sender_of ~n:cfg.n m in
        if List.mem src acc then acc else src :: acc
      else acc)
    msgs []

(* Set.t values are not canonical (equal sets can have different AVL
   shapes), so hashing/comparing states directly would break visited
   checks; [Msgset.elements] gives a canonical sorted-list key.  This is
   the exact-mode key; the fingerprint below hashes the same canonical
   stream. *)
let key (st : state) = (Array.to_list st.procs, Msgset.elements st.msgs)

(* Canonical, prefix-decodable word stream: section lengths first, then
   fixed-arity records, then messages in Msgset (sorted) order with a
   tag before each payload.  Equal states produce equal streams and
   distinct states distinct streams, which is all {!Fingerprint}
   needs. *)
let fold_canonical f acc st =
  let acc = f acc (Array.length st.procs) in
  let acc =
    Array.fold_left
      (fun acc p ->
        let acc = f acc p.mbal in
        let acc = f acc p.vbal in
        let acc = f acc p.vval in
        f acc p.decided)
      acc st.procs
  in
  let acc = f acc (Msgset.cardinal st.msgs) in
  Msgset.fold
    (fun m acc ->
      match m with
      | M1a { src; bal } -> f (f (f acc 0) src) bal
      | M1b { src; bal; vbal; vval } ->
          f (f (f (f (f acc 1) src) bal) vbal) vval
      | M2a { bal; value } -> f (f (f acc 2) bal) value
      | M2b { src; bal; value } -> f (f (f (f acc 3) src) bal) value)
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

(* --- transitions ----------------------------------------------------- *)

(* Boot / epsilon-gossip: announce the current ballot. *)
let announces cfg st =
  List.filter_map
    (fun p -> add_msg st (M1a { src = p; bal = st.procs.(p).mbal }))
    (List.init cfg.n Fun.id)

(* Start Phase 1: jump to the next self-owned session, if the gate lets
   us and the session cap is not exceeded. *)
let start_phase1s cfg st =
  List.filter_map
    (fun p ->
      let proc = st.procs.(p) in
      let s = session ~n:cfg.n proc.mbal in
      let enabled =
        (not cfg.gate)
        || s = 0
        || List.length (senders_in_session cfg st.msgs s) >= majority cfg.n
      in
      if (not enabled) || s + 1 > cfg.max_session then None
      else begin
        let bal = ((s + 1) * cfg.n) + p in
        let st = with_proc st p { proc with mbal = bal } in
        match add_msg st (M1a { src = p; bal }) with
        | Some st' -> Some st'
        | None -> Some st
      end)
    (List.init cfg.n Fun.id)

(* Receive a 1a: adopt the ballot and answer 1b.  Successors are consed
   straight onto the accumulator (no per-message intermediate list), and
   the process list is built once per call, not once per message. *)
let deliver_1as cfg st =
  let ps = List.init cfg.n Fun.id in
  Msgset.fold
    (fun m acc ->
      match m with
      | M1a { bal; _ } ->
          List.fold_left
            (fun acc p ->
              let proc = st.procs.(p) in
              if bal < proc.mbal then acc
              else begin
                let st' = with_proc st p { proc with mbal = bal } in
                match
                  add_msg st'
                    (M1b
                       { src = p; bal; vbal = proc.vbal; vval = proc.vval })
                with
                | Some st'' -> st'' :: acc
                | None ->
                    (* the 1b already exists; still a transition if the
                       adoption raised p's ballot *)
                    if proc.mbal < bal then st' :: acc else acc
              end)
            acc ps
      | _ -> acc)
    st.msgs []

(* Phase 2a: the owner of its current ballot picks a majority of 1b
   answers (every choice of majority is explored — the adversary picks)
   and proposes the max-vbal value, or its own proposal. *)
let phase2as cfg st =
  (* one scratch table per call, reset per process: the 1b grouping is
     the hot allocation in successor generation *)
  let by_sender = Hashtbl.create 8 in
  List.concat_map
    (fun p ->
      let proc = st.procs.(p) in
      let bal = proc.mbal in
      if owner ~n:cfg.n bal <> p then []
      else if Msgset.exists (function M2a { bal = b; _ } -> b = bal | _ -> false) st.msgs
      then []
      else begin
        (* group this ballot's 1b messages by sender *)
        Hashtbl.reset by_sender;
        Msgset.iter
          (function
            | M1b { src; bal = b; vbal; vval } when b = bal ->
                Hashtbl.replace by_sender src
                  ((vbal, vval) :: (try Hashtbl.find by_sender src with Not_found -> []))
            | _ -> ())
          st.msgs;
        let senders = Sim.Sorted_tbl.keys ~compare:Int.compare by_sender in
        let m = majority cfg.n in
        if List.length senders < m then []
        else begin
          (* all majority-sized sender subsets x per-sender vote choices *)
          let rec subsets k = function
            | [] -> if k = 0 then [ [] ] else []
            | x :: rest ->
                if k = 0 then [ [] ]
                else
                  List.map (fun sub -> x :: sub) (subsets (k - 1) rest)
                  @ subsets k rest
          in
          let vote_choices sub =
            List.fold_left
              (fun acc s ->
                let votes = Hashtbl.find by_sender s in
                List.concat_map
                  (fun chosen -> List.map (fun v -> v :: chosen) votes)
                  acc)
              [ [] ] sub
          in
          List.concat_map
            (fun sub ->
              List.filter_map
                (fun votes ->
                  let vb, vv =
                    List.fold_left
                      (fun (b0, v0) (b1, v1) ->
                        if b1 > b0 then (b1, v1) else (b0, v0))
                      (-1, -1) votes
                  in
                  let value = if vb >= 0 then vv else cfg.proposals.(p) in
                  add_msg st (M2a { bal; value }))
                (vote_choices sub))
            (subsets m senders)
        end
      end)
    (List.init cfg.n Fun.id)

(* Receive a 2a: adopt and accept. *)
let deliver_2as cfg st =
  let ps = List.init cfg.n Fun.id in
  Msgset.fold
    (fun m acc ->
      match m with
      | M2a { bal; value } ->
          List.fold_left
            (fun acc p ->
              let proc = st.procs.(p) in
              if bal < proc.mbal then acc
              else begin
                let st =
                  with_proc st p { proc with mbal = bal; vbal = bal; vval = value }
                in
                match add_msg st (M2b { src = p; bal; value }) with
                | Some st' -> st' :: acc
                | None -> acc
              end)
            acc ps
      | _ -> acc)
    st.msgs []

(* Same key order as the polymorphic compare on int pairs, made
   monomorphic (lint R6). *)
let compare_int_pair (b1, v1) (b2, v2) =
  let c = Int.compare b1 b2 in
  if c <> 0 then c else Int.compare v1 v2

(* Decide on a majority of matching 2b messages.  Senders are grouped by
   (ballot, value) in a single pass over the message set — the old code
   re-scanned all messages once per candidate pair.  Set membership makes
   (src, bal, value) unique, so each group's sender list is distinct
   without a membership test. *)
let decides cfg st =
  let groups : (int * int, int list) Hashtbl.t = Hashtbl.create 16 in
  Msgset.iter
    (fun m ->
      match m with
      | M2b { src; bal; value } ->
          let prev =
            match Hashtbl.find_opt groups (bal, value) with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace groups (bal, value) (src :: prev)
      | _ -> ())
    st.msgs;
  let ps = List.init cfg.n Fun.id in
  List.concat_map
    (fun ((_bal, value), senders) ->
      if List.length senders < majority cfg.n then []
      else
        List.filter_map
          (fun p ->
            let proc = st.procs.(p) in
            if proc.decided >= 0 then None
            else Some (with_proc st p { proc with decided = value }))
          ps)
    (Sim.Sorted_tbl.bindings ~compare:compare_int_pair groups)

let successors cfg st =
  announces cfg st @ start_phase1s cfg st @ deliver_1as cfg st
  @ phase2as cfg st @ deliver_2as cfg st @ decides cfg st

(* --- properties ------------------------------------------------------- *)

let agreement st =
  let decided =
    Array.to_list st.procs
    |> List.filter_map (fun p -> if p.decided >= 0 then Some p.decided else None)
  in
  match decided with
  | [] -> true
  | v :: rest -> List.for_all (( = ) v) rest

let validity cfg st =
  Array.for_all
    (fun p -> p.decided < 0 || Array.exists (( = ) p.decided) cfg.proposals)
    st.procs

let obsolete_bound cfg st =
  (* highest session reached by a majority *)
  let sessions =
    Array.to_list st.procs
    |> List.map (fun p -> session ~n:cfg.n p.mbal)
    |> List.sort (fun a b -> Int.compare b a)
  in
  let majority_session = List.nth sessions (majority cfg.n - 1) in
  let ok_bal b = session ~n:cfg.n b <= majority_session + 1 in
  Array.for_all (fun p -> ok_bal p.mbal) st.procs
  && Msgset.for_all (fun m -> ok_bal (bal_of m)) st.msgs

let pp_state fmt st =
  Array.iteri
    (fun i p ->
      Format.fprintf fmt "p%d{mbal=%d vbal=%d vval=%d dec=%d} " i p.mbal
        p.vbal p.vval p.decided)
    st.procs;
  Format.fprintf fmt "| %d msgs" (Msgset.cardinal st.msgs)
