(* A state is one int array that is its own canonical word stream:

     [n; mbal vbal vval decided (x n); #msgs; records...]

   Each record starts with its tag: 1a = [0 src bal], 1b = [1 src bal
   vbal vval], 2a = [2 bal value], 2b = [3 src bal value].  Records are
   distinct and sorted lexicographically, so equal states are equal
   arrays.  A successor is built by one copy of its parent, edited
   before it is returned and never written afterwards, so states are
   safe to share between domains. *)
type state = int array

type config = {
  n : int;
  proposals : int array;
  max_session : int;
  gate : bool;
}

let t1a = 0 and t1b = 1 and t2a = 2 and t2b = 3

(* Words in a record, tag included. *)
let arity tag = match tag with 0 | 2 -> 3 | 1 -> 5 | _ -> 4

let session ~n b = b / n

let owner ~n b = b mod n

let majority n = (n / 2) + 1

(* --- reading a state -------------------------------------------------- *)

let mbal st p = st.((4 * p) + 1)

let vbal st p = st.((4 * p) + 2)

let vval st p = st.((4 * p) + 3)

let decided st p = st.((4 * p) + 4)

let count_at st = (4 * st.(0)) + 1

let msg_count st = st.(count_at st)

(* [fold_from lo hi f acc st o] folds [f acc o] over the records from
   offset [o] on whose tags lie in [lo, hi], in order; [o] is the offset
   of a record's tag.  Records are sorted by tag, so the walk stops at
   the first tag above [hi]. *)
let rec fold_from lo hi f acc st o =
  if o >= Array.length st || st.(o) > hi then acc
  else
    let acc = if st.(o) >= lo then f acc o else acc in
    fold_from lo hi f acc st (o + arity st.(o))

let fold_tag tag f acc st = fold_from tag tag f acc st (count_at st + 1)

let fold_msgs f acc st = fold_from t1a t2b f acc st (count_at st + 1)

let msg_bal st o = if st.(o) = t2a then st.(o + 1) else st.(o + 2)

let msg_sender ~n st o =
  if st.(o) = t2a then owner ~n st.(o + 1) else st.(o + 1)

(* --- building a successor --------------------------------------------- *)

(* Successors are fresh arrays, so these edits never touch a shared
   state. *)
let set_mbal st p bal = st.((4 * p) + 1) <- bal

let with_mbal st p bal =
  let st = Array.copy st in
  set_mbal st p bal;
  st

let with_decided st p value =
  let st = Array.copy st in
  st.((4 * p) + 4) <- value;
  st

let word i tag w1 w2 w3 w4 =
  match i with 0 -> tag | 1 -> w1 | 2 -> w2 | 3 -> w3 | _ -> w4

(* Lexicographic order of words [i ..] of the record [tag w1 w2 w3 w4]
   (its first [len] words) against those of the record at [o]. *)
let rec compare_at st o i len tag w1 w2 w3 w4 =
  if i = len then 0
  else
    let x = word i tag w1 w2 w3 w4 and y = st.(o + i) in
    if x <> y then Int.compare x y
    else compare_at st o (i + 1) len tag w1 w2 w3 w4

(* Where the record belongs in the sorted records from offset [o] on;
   [-1] when it is already there. *)
let rec slot st o len tag w1 w2 w3 w4 =
  if o >= Array.length st || st.(o) > tag then o
  else if st.(o) < tag then slot st (o + arity st.(o)) len tag w1 w2 w3 w4
  else
    let c = compare_at st o 1 len tag w1 w2 w3 w4 in
    if c = 0 then -1
    else if c < 0 then o
    else slot st (o + len) len tag w1 w2 w3 w4

(* [st] plus the record [tag w1 w2 w3 w4] (words past its arity are
   ignored) as a fresh array, or [None] when [st] already holds it: one
   scan finds its place, one copy makes room. *)
let with_msg st tag w1 w2 w3 w4 =
  let len = arity tag and total = Array.length st in
  let o = slot st (count_at st + 1) len tag w1 w2 w3 w4 in
  if o < 0 then None
  else begin
    let st' = Array.make (total + len) 0 in
    Array.blit st 0 st' 0 o;
    for i = 0 to len - 1 do
      st'.(o + i) <- word i tag w1 w2 w3 w4
    done;
    Array.blit st o st' (o + len) (total - o);
    st'.(count_at st) <- msg_count st + 1;
    Some st'
  end

let initial cfg =
  let st = Array.make ((4 * cfg.n) + 2) (-1) in
  st.(0) <- cfg.n;
  for p = 0 to cfg.n - 1 do
    set_mbal st p p
  done;
  st.(count_at st) <- 0;
  st

let key st = st

let fingerprint st = Fingerprint.of_words st

(* Distinct processes that provably reached session [s]: they sent a
   message carrying a session-[s] ballot. *)
let senders_in_session cfg st s =
  let seen = Bytes.make cfg.n '\000' in
  fold_msgs
    (fun k o ->
      let src = msg_sender ~n:cfg.n st o in
      if session ~n:cfg.n (msg_bal st o) <> s || Bytes.get seen src <> '\000'
      then k
      else begin
        Bytes.set seen src '\001';
        k + 1
      end)
    0 st

(* --- transitions: each takes [ps] = [0 .. n-1], built once per state -- *)

(* Boot / epsilon-gossip: announce the current ballot. *)
let announces ps st =
  List.filter_map (fun p -> with_msg st t1a p (mbal st p) 0 0) ps

(* Start Phase 1: jump to the next self-owned session, if the gate lets
   us and the session cap is not exceeded. *)
let start_phase1s cfg ps st =
  List.filter_map
    (fun p ->
      let s = session ~n:cfg.n (mbal st p) in
      if
        s + 1 > cfg.max_session
        || (cfg.gate && s > 0 && senders_in_session cfg st s < majority cfg.n)
      then None
      else
        let bal = ((s + 1) * cfg.n) + p in
        match with_msg st t1a p bal 0 0 with
        | Some st' ->
            set_mbal st' p bal;
            Some st'
        | None -> Some (with_mbal st p bal))
    ps

(* Receive a 1a: adopt the ballot and answer 1b.  Successors are consed
   straight onto the accumulator (no per-message intermediate list). *)
let deliver_1as ps st =
  fold_tag t1a
    (fun acc o ->
      let bal = msg_bal st o in
      List.fold_left
        (fun acc p ->
          if bal < mbal st p then acc
          else
            match with_msg st t1b p bal (vbal st p) (vval st p) with
            | Some st' ->
                set_mbal st' p bal;
                st' :: acc
            | None ->
                (* the 1b already exists; still a transition if the
                   adoption raised p's ballot *)
                if mbal st p < bal then with_mbal st p bal :: acc else acc)
        acc ps)
    [] st

(* Phase 2a: the owner of its current ballot picks a majority of 1b
   answers (every choice of majority is explored — the adversary picks)
   and proposes the max-vbal value, or its own proposal. *)
let phase2as cfg ps st =
  List.concat_map
    (fun p ->
      let bal = mbal st p in
      if
        owner ~n:cfg.n bal <> p
        || fold_tag t2a (fun e o -> e || st.(o + 1) = bal) false st
      then []
      else begin
        (* this ballot's 1b votes (vbal, vval), grouped by sender *)
        let votes = Array.make cfg.n [] in
        fold_tag t1b
          (fun () o ->
            let src = st.(o + 1) in
            if st.(o + 2) = bal then
              votes.(src) <- (st.(o + 3), st.(o + 4)) :: votes.(src))
          () st;
        let senders =
          List.filter (fun s -> match votes.(s) with [] -> false | _ -> true) ps
        in
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
                List.concat_map
                  (fun chosen -> List.map (fun v -> v :: chosen) votes.(s))
                  acc)
              [ [] ] sub
          in
          List.concat_map
            (fun sub ->
              List.filter_map
                (fun picked ->
                  let vb, vv =
                    List.fold_left
                      (fun (b0, v0) (b1, v1) ->
                        if b1 > b0 then (b1, v1) else (b0, v0))
                      (-1, -1) picked
                  in
                  let value = if vb >= 0 then vv else cfg.proposals.(p) in
                  with_msg st t2a bal value 0 0)
                (vote_choices sub))
            (subsets m senders)
        end
      end)
    ps

(* Receive a 2a: adopt and accept. *)
let deliver_2as ps st =
  fold_tag t2a
    (fun acc o ->
      let bal = st.(o + 1) and value = st.(o + 2) in
      List.fold_left
        (fun acc p ->
          if bal < mbal st p then acc
          else
            match with_msg st t2b p bal value 0 with
            | Some st' ->
                st'.((4 * p) + 1) <- bal;
                st'.((4 * p) + 2) <- bal;
                st'.((4 * p) + 3) <- value;
                st' :: acc
            | None -> acc)
        acc ps)
    [] st

(* Same key order as the polymorphic compare on int pairs, made
   monomorphic (lint R6). *)
let compare_int_pair (b1, v1) (b2, v2) =
  let c = Int.compare b1 b2 in
  if c <> 0 then c else Int.compare v1 v2

(* Decide on a majority of matching 2b messages.  Sorting the 2b
   (ballot, value) pairs makes each group one run; records are unique,
   so a run's length counts distinct senders. *)
let decides cfg ps st =
  let pairs =
    fold_tag t2b (fun acc o -> (st.(o + 2), st.(o + 3)) :: acc) [] st
    |> List.sort compare_int_pair
  in
  let rec chosen acc = function
    | [] -> List.rev acc
    | pair :: rest ->
        let rec run k = function
          | p :: rest when compare_int_pair pair p = 0 -> run (k + 1) rest
          | rest -> (k, rest)
        in
        let k, rest = run 1 rest in
        chosen (if k >= majority cfg.n then snd pair :: acc else acc) rest
  in
  List.concat_map
    (fun value ->
      List.filter_map
        (fun p ->
          if decided st p >= 0 then None else Some (with_decided st p value))
        ps)
    (chosen [] pairs)

let successors cfg st =
  let ps = List.init cfg.n Fun.id in
  announces ps st @ start_phase1s cfg ps st @ deliver_1as ps st
  @ phase2as cfg ps st @ deliver_2as ps st @ decides cfg ps st

(* --- properties ------------------------------------------------------- *)

let agreement st =
  (* [v]: the first decision seen, [-1] before one *)
  let rec go v p =
    p >= st.(0)
    ||
    let d = decided st p in
    (d < 0 || v < 0 || d = v) && go (if d < 0 then v else d) (p + 1)
  in
  go (-1) 0

let validity cfg st =
  let valid d = d < 0 || Array.exists (Int.equal d) cfg.proposals in
  let rec go p = p >= cfg.n || (valid (decided st p) && go (p + 1)) in
  go 0

let obsolete_bound cfg st =
  let n = cfg.n in
  (* one above the highest session reached by a majority: the largest
     session at least a majority of processes have reached *)
  let best = ref min_int in
  for p = 0 to n - 1 do
    let s = session ~n (mbal st p) and reached = ref 0 in
    for q = 0 to n - 1 do
      if session ~n (mbal st q) >= s then incr reached
    done;
    if !reached >= majority n then best := Int.max !best s
  done;
  let bound = !best + 1 in
  let ok_bal b = session ~n b <= bound in
  let rec ok_procs p = p >= n || (ok_bal (mbal st p) && ok_procs (p + 1)) in
  ok_procs 0 && fold_msgs (fun ok o -> ok && ok_bal (msg_bal st o)) true st

let pp_state fmt st =
  for p = 0 to st.(0) - 1 do
    Format.fprintf fmt "p%d{mbal=%d vbal=%d vval=%d dec=%d} " p (mbal st p)
      (vbal st p) (vval st p) (decided st p)
  done;
  Format.fprintf fmt "| %d msgs" (msg_count st)
