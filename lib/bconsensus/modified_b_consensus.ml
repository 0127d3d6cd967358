open Consensus
module Engine = Sim.Engine

type tuning = {
  hold_back : float;
  epsilon : float;
  broadcast_decision : bool;
  jump : bool;
}

let default_tuning ~delta =
  {
    hold_back = 2. *. delta;
    epsilon = delta /. 4.;
    broadcast_decision = false;
    jump = true;
  }

let resend_tag = -1

let oracle_tag = -2

type config = { n : int; tuning : tuning; hold_local : float }

(* What we still retransmit about the round we most recently left, so
   that a process one round behind us can finish it.  (The paper notes
   the alternative — retransmitting *all* previous rounds — is
   unreasonable; one round back suffices because a process more than one
   round behind jumps instead.) *)
type prev_round = {
  pr_round : int;
  pr_first : Types.value option;
      (* the estimate we wabcast in that round — [None] if we entered it
         by jumping and so never contributed a First *)
  pr_report : Types.value option;
  pr_lock : Types.value option option;  (* None = never locked *)
}

type state = {
  cfg : config;
  round : int;
  est : Types.value;
  oracle : (int * Types.value) Ordering_oracle.t;
  (* first oracle-delivered First per round >= current round; the cache
     lets a process that jumps report immediately on round entry *)
  delivered_firsts : (int * Types.value) list;
  (* current-round stage bookkeeping *)
  first_sent : bool;
      (* whether we wabcast our estimate into this round: true when we
         entered it through the lock phase (or at boot), false when we
         jumped in *)
  reported : bool;
  stage2_value : Types.value option;  (* value we reported this round *)
  reports : (Types.proc_id * Types.value) list;
  locked : bool;
  lock_value : Types.value option;  (* what we locked, once [locked] *)
  locks : (Types.proc_id * Types.value option) list;
  history : prev_round list;
      (* rounds we have left, newest first.  With jumping on, only the
         newest entry is retransmitted (a process more than one round
         behind jumps); without jumping, every entry is — the cost the
         paper calls unreasonable, measured by experiment A3. *)
  decided : Types.value option;
}

(* [List.mem_assoc] / [List.assoc_opt] on the int keys (rounds, process
   ids) of the association lists above, without polymorphic compare. *)
let rec has_key (k : int) = function
  | [] -> false
  | (k', _) :: rest -> k' = k || has_key k rest

let rec find_key (k : int) = function
  | [] -> None
  | (k', v) :: rest -> if k' = k then Some v else find_key k rest

let round st = st.round

let estimate st = st.est

let decided st = st.decided

let majority st = Quorum.majority st.cfg.n

(* Stage 1: push an estimate into the oracle stream (fresh stamp). *)
let wabcast ctx st ~round ~value =
  let oracle, stamp = Ordering_oracle.next_stamp st.oracle in
  Engine.broadcast ctx (Bc_messages.First { stamp; round; value });
  { st with oracle }

let record_decision ctx st v =
  Engine.decide ctx v;
  match st.decided with
  | Some _ -> st
  | None ->
      if st.cfg.tuning.broadcast_decision then
        Engine.broadcast ctx (Bc_messages.Decision { value = v });
      { st with decided = Some v }

(* Stage 2b: the first majority of reports determines our lock.  [Some v]
   needs every collected report equal to [v]; two conflicting [Some]
   locks are impossible in one round because each would need a majority
   of identical reports and every process reports once per round. *)
let maybe_lock ctx st =
  if st.locked || List.length st.reports < majority st then st
  else begin
    let lock_value =
      match st.reports with
      | [] -> None
      | (_, v0) :: rest ->
          if List.for_all (fun (_, v) -> v = v0) rest then Some v0 else None
    in
    Engine.broadcast ctx
      (Bc_messages.Lock { round = st.round; value = lock_value });
    { st with locked = true; lock_value }
  end

let rec enter_round ctx st r =
  assert (r > st.round);
  (* [r = st.round + 1] is round completion (the only call site is the
     lock phase); anything further is a jump. *)
  let jumped = r > st.round + 1 in
  let left =
    {
      pr_round = st.round;
      pr_first = (if st.first_sent then Some st.est else None);
      pr_report = (if st.reported then st.stage2_value else None);
      pr_lock = (if st.locked then Some st.lock_value else None);
    }
  in
  let history =
    if st.cfg.tuning.jump then [ left ] else left :: st.history
  in
  let st =
    {
      st with
      round = r;
      delivered_firsts =
        List.filter (fun (rr, _) -> rr >= r) st.delivered_firsts;
      first_sent = not jumped;
      reported = false;
      stage2_value = None;
      reports = [];
      locked = false;
      lock_value = None;
      locks = [];
      history;
    }
  in
  (* A jumper must not inject its estimate into a round it did not reach
     through the lock phase.  Once some round decides [v], every First
     of a later round carries [v] — that is the agreement induction —
     but a jumper's estimate predates the decision, and since stage 2
     reports echo whichever First the oracle delivers {e first}, a
     single stale First can win the round at every process and overturn
     the decided value.  Entering by completion is safe: stage 4 just
     set [est] from a lock majority that intersects every decision
     quorum.  The jumper still reports, locks and finishes the round —
     at which point its estimate is sanctioned and it speaks again. *)
  let st =
    if jumped then st else wabcast ctx st ~round:r ~value:st.est
  in
  (* A First of this round may already have been oracle-delivered while
     we were behind: report it now. *)
  maybe_report ctx st

and maybe_report ctx st =
  if st.reported then st
  else
    match find_key st.round st.delivered_firsts with
    | None -> st
    | Some v ->
        let st = { st with reported = true; stage2_value = Some v } in
        Engine.broadcast ctx (Bc_messages.Report { round = st.round; value = v });
        maybe_lock ctx st

(* Lock-phase completion ends the round.  There is no other way to leave
   a round short of jumping: hearing a majority of locks *is* the
   paper's majority gate ("does not start round i+1 until a majority of
   the processes have begun round i"). *)
let maybe_finish_round ctx st =
  if List.length st.locks < majority st then st
  else begin
    let somes = List.filter_map snd st.locks in
    let st =
      match somes with
      | v :: _ when List.length somes = List.length st.locks ->
          (* every collected lock is [Some v]: decide *)
          record_decision ctx { st with est = v } v
      | v :: _ ->
          (* at least one lock: adopt it — if anyone decided this round,
             every majority of locks contains its value *)
          { st with est = v }
      | [] -> (
          (* nobody locked, so nobody decided this round: free to follow
             the oracle's suggestion, which converges after TS *)
          match st.stage2_value with
          | Some v -> { st with est = v }
          | None -> st)
    in
    enter_round ctx st (st.round + 1)
  end

(* Oracle delivery: the first round-[r] First delivered fixes the value
   this process reports in round [r] (cached if we are not there yet). *)
let on_oracle_delivery ctx st (r, v) =
  if r < st.round then st
  else begin
    let st =
      if has_key r st.delivered_firsts then st
      else { st with delivered_firsts = (r, v) :: st.delivered_firsts }
    in
    (* Jump only when more than one round behind: a process exactly one
       round behind can still finish its round from in-flight and
       retransmitted messages (no loss after TS), and abandoning it
       would stall the processes that need our participation. *)
    if st.cfg.tuning.jump && r > st.round + 1 then enter_round ctx st r
    else maybe_report ctx st
  end

let drain_oracle ctx st =
  match Ordering_oracle.due st.oracle ~now_local:(Engine.local_time ctx) with
  | _, [] -> st (* nothing released: the oracle is unchanged *)
  | oracle, ready ->
      List.fold_left
        (fun st (_stamp, payload) -> on_oracle_delivery ctx st payload)
        { st with oracle } ready

let handle_first ctx st stamp r v =
  let now_local = Engine.local_time ctx in
  let oracle, release_local =
    Ordering_oracle.receive st.oracle ~now_local ~stamp (r, v)
  in
  let st = { st with oracle } in
  let delay = Float.max 0. (release_local -. now_local) in
  Engine.set_timer ctx ~local_delay:delay ~tag:oracle_tag;
  (* Round jumping happens on *receipt* of a far-future-round message
     (the paper's modification); the payload itself still waits in the
     oracle. *)
  if st.cfg.tuning.jump && r > st.round + 1 then enter_round ctx st r else st

let handle_report ctx st ~src r v =
  if r <> st.round then st
  else if has_key src st.reports then st
  else maybe_lock ctx { st with reports = (src, v) :: st.reports }

let handle_lock ctx st ~src r lv =
  if r <> st.round then st
  else if has_key src st.locks then st
  else maybe_finish_round ctx { st with locks = (src, lv) :: st.locks }

let on_message_impl ctx st ~src msg =
  match msg with
  | Bc_messages.Decision { value } -> record_decision ctx st value
  | Bc_messages.First { stamp; round; value } ->
      handle_first ctx st stamp round value
  | Bc_messages.Report { round; value } ->
      let st =
        if st.cfg.tuning.jump && round > st.round + 1 then
          enter_round ctx st round
        else st
      in
      handle_report ctx st ~src round value
  | Bc_messages.Lock { round; value } ->
      let st =
        if st.cfg.tuning.jump && round > st.round + 1 then
          enter_round ctx st round
        else st
      in
      handle_lock ctx st ~src round value

let retransmit ctx st =
  (* Current round, every epsilon: processes silenced before TS complete
     the round within O(delta) of stabilization.  A jumper keeps its
     silence in stage 1 (see [enter_round]) — repeating its stale
     estimate here would reopen the same hole. *)
  let st =
    if st.first_sent then wabcast ctx st ~round:st.round ~value:st.est
    else st
  in
  (match st.stage2_value with
  | Some v when st.reported ->
      Engine.broadcast ctx (Bc_messages.Report { round = st.round; value = v })
  | _ -> ());
  if st.locked then
    Engine.broadcast ctx
      (Bc_messages.Lock { round = st.round; value = st.lock_value });
  (* Previous rounds too: with jumping, only the last one (a process one
     round behind can finish it; anyone further behind jumps); without
     jumping, all of them, since a straggler must execute every round. *)
  List.fold_left
    (fun st p ->
      let st =
        match p.pr_first with
        | Some v -> wabcast ctx st ~round:p.pr_round ~value:v
        | None -> st
      in
      (match p.pr_report with
      | Some v ->
          Engine.broadcast ctx
            (Bc_messages.Report { round = p.pr_round; value = v })
      | None -> ());
      (match p.pr_lock with
      | Some lv ->
          Engine.broadcast ctx
            (Bc_messages.Lock { round = p.pr_round; value = lv })
      | None -> ());
      st)
    st st.history

let on_timer_impl ctx st ~tag =
  if tag = oracle_tag then drain_oracle ctx st
  else if tag = resend_tag then begin
    (* Decided processes keep participating: with a bare majority alive,
       every remaining process's traffic is needed by the others. *)
    let st = retransmit ctx st in
    Engine.set_timer ctx ~local_delay:st.cfg.tuning.epsilon ~tag:resend_tag;
    st
  end
  else st

let initial_state ctx cfg =
  {
    cfg;
    round = 0;
    est = Engine.proposal ctx;
    oracle =
      Ordering_oracle.create ~owner:(Engine.self ctx)
        ~hold_local:cfg.hold_local;
    delivered_firsts = [];
    first_sent = true;
    reported = false;
    stage2_value = None;
    reports = [];
    locked = false;
    lock_value = None;
    locks = [];
    history = [];
    decided = None;
  }

let protocol ?tuning ~n ~delta ~rho () =
  let tuning =
    match tuning with Some t -> t | None -> default_tuning ~delta
  in
  if tuning.hold_back < 0. then
    invalid_arg "Modified_b_consensus.protocol: negative hold-back";
  if tuning.epsilon <= 0. then
    invalid_arg "Modified_b_consensus.protocol: non-positive epsilon";
  if rho < 0. || rho >= 1. then
    invalid_arg "Modified_b_consensus.protocol: rho out of range";
  (* Local hold-back that guarantees >= hold_back real seconds under
     every admissible clock rate. *)
  let cfg = { n; tuning; hold_local = tuning.hold_back *. (1. +. rho) } in
  let boot ctx =
    let st = initial_state ctx cfg in
    Engine.set_timer ctx ~local_delay:tuning.epsilon ~tag:resend_tag;
    wabcast ctx st ~round:0 ~value:st.est
  in
  let resume ctx st =
    Engine.set_timer ctx ~local_delay:tuning.epsilon ~tag:resend_tag;
    (* Whatever the oracle already held is re-examined shortly after the
       restart. *)
    Engine.set_timer ctx ~local_delay:cfg.hold_local ~tag:oracle_tag;
    st
  in
  Engine.persistent
    ~name:
      (if tuning.jump then "modified-b-consensus"
       else "modified-b-consensus-nojump")
    ~boot ~on_message:on_message_impl ~on_timer:on_timer_impl ~resume
    ~msg_payload:Bc_messages.payload
