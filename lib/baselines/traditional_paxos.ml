open Consensus
module Engine = Sim.Engine
module Imap = Map.Make (Int)

type tuning = { theta : float; broadcast_decision : bool }

let default_tuning ~delta = { theta = 2. *. delta; broadcast_decision = true }

let tick_tag = 0

type config = {
  n : int;
  tuning : tuning;
  oracle : Leader_election.t;
}

type state = {
  cfg : config;
  mbal : Ballot.t;
  vote : Vote.t;
  proposal : Types.value;
  max_seen : Ballot.t;  (* highest ballot observed in any message *)
  p1b_from : Quorum.t;
  p1b_votes : Vote.t list;
  sent_2a : bool;
  p2b : (Quorum.t * Types.value) Imap.t;
  decided : Types.value option;
  last_progress_local : float;
      (* local time of the last step forward on our own ballot; the
         leader re-runs Start Phase 1 when this goes stale *)
}

let mbal st = st.mbal

let decided st = st.decided

let observe st b = { st with max_seen = Stdlib.max st.max_seen b }

let progress ctx st = { st with last_progress_local = Engine.local_time ctx }

let is_leader ctx st =
  Leader_election.leader_at st.cfg.oracle ~now:(Engine.oracle_time ctx)
  = Engine.self ctx

(* Start Phase 1: pick the smallest self-owned ballot above everything
   seen so far and broadcast a 1a. *)
let start_phase1 ctx st =
  let self = Engine.self ctx in
  let base = Stdlib.max st.mbal st.max_seen in
  let b = Ballot.succ_owned ~n:st.cfg.n ~proc:self base in
  let st =
    {
      st with
      mbal = b;
      max_seen = Stdlib.max st.max_seen b;
      p1b_from = Quorum.create ~n:st.cfg.n;
      p1b_votes = [];
      sent_2a = false;
    }
  in
  Engine.broadcast ctx (Paxos_messages.P1a { mbal = b });
  progress ctx st

let record_decision ctx st v =
  Engine.decide ctx v;
  match st.decided with
  | Some _ -> st
  | None ->
      if st.cfg.tuning.broadcast_decision then
        Engine.broadcast ctx (Paxos_messages.Decision { value = v });
      { st with decided = Some v }

let handle_1a ctx st b =
  let st = observe st b in
  if b >= st.mbal then begin
    let st =
      if b > st.mbal then
        {
          st with
          mbal = b;
          p1b_from = Quorum.create ~n:st.cfg.n;
          p1b_votes = [];
          sent_2a = false;
        }
      else st
    in
    Engine.send ctx
      ~dst:(Ballot.owner ~n:st.cfg.n b)
      (Paxos_messages.P1b { mbal = b; vote = st.vote });
    st
  end
  else begin
    (* Reject: tell the owner of the stale ballot how far we are. *)
    Engine.send ctx
      ~dst:(Ballot.owner ~n:st.cfg.n b)
      (Paxos_messages.Rejected { mbal = st.mbal });
    st
  end

let handle_1b ctx st ~src b vote =
  let st = observe st b in
  if
    b = st.mbal
    && Ballot.owner ~n:st.cfg.n b = Engine.self ctx
    && (not st.sent_2a)
    && not (Quorum.mem st.p1b_from src)
  then begin
    let st =
      {
        st with
        p1b_from = Quorum.add st.p1b_from src;
        p1b_votes = vote :: st.p1b_votes;
      }
    in
    let st = progress ctx st in
    if Quorum.reached st.p1b_from then begin
      let value = Vote.choose ~fallback:st.proposal st.p1b_votes in
      Engine.broadcast ctx (Paxos_messages.P2a { mbal = b; value });
      { st with sent_2a = true }
    end
    else st
  end
  else st

let handle_2a ctx st b value =
  let st = observe st b in
  if b >= st.mbal then begin
    let st = { st with mbal = b; vote = Vote.make ~vbal:b ~vval:value } in
    Engine.broadcast ctx (Paxos_messages.P2b { mbal = b; value });
    st
  end
  else begin
    Engine.send ctx
      ~dst:(Ballot.owner ~n:st.cfg.n b)
      (Paxos_messages.Rejected { mbal = st.mbal });
    st
  end

let handle_2b ctx st ~src b value =
  let st = observe st b in
  let who, v =
    match Imap.find_opt b st.p2b with
    | Some (q, v) -> (q, v)
    | None -> (Quorum.create ~n:st.cfg.n, value)
  in
  if v <> value then st
  else begin
    let who = Quorum.add who src in
    let st = { st with p2b = Imap.add b (who, v) st.p2b } in
    let st =
      if b = st.mbal && Ballot.owner ~n:st.cfg.n b = Engine.self ctx then
        progress ctx st
      else st
    in
    if Quorum.reached who then record_decision ctx st v else st
  end

let handle_rejected ctx st b =
  let st = observe st b in
  (* A rejection means somebody is ahead: if we are the leader, retry
     immediately with a higher ballot (the "within 2 delta ... can then
     execute the Start Phase 1 action with a larger value" path). *)
  if is_leader ctx st && b > st.mbal && st.decided = None then
    start_phase1 ctx st
  else st

let on_tick ctx st =
  let st =
    match st.decided with
    | Some v ->
        (* "Once a process has decided, it would ... simply respond to
           every message by announcing the value it has decided upon".
           Re-announcing every theta is the periodic form of that rule;
           without it a process restarting after everyone has decided
           hears nothing, since only the (now satisfied) leader ever
           initiates traffic. *)
        if st.cfg.tuning.broadcast_decision then
          Engine.broadcast ctx (Paxos_messages.Decision { value = v });
        st
    | None ->
        if is_leader ctx st then begin
          let lnow = Engine.local_time ctx in
          let stale =
            lnow -. st.last_progress_local >= st.cfg.tuning.theta
          in
          let leading = Ballot.owner ~n:st.cfg.n st.mbal = Engine.self ctx in
          if (not leading) || stale then start_phase1 ctx st else st
        end
        else st
  in
  Engine.set_timer ctx ~local_delay:st.cfg.tuning.theta ~tag:tick_tag;
  st

let initial_state ctx cfg =
  let self = Engine.self ctx in
  {
    cfg;
    mbal = Ballot.initial ~proc:self;
    vote = Vote.none;
    proposal = Engine.proposal ctx;
    max_seen = Ballot.initial ~proc:self;
    p1b_from = Quorum.create ~n:cfg.n;
    p1b_votes = [];
    sent_2a = false;
    p2b = Imap.empty;
    decided = None;
    last_progress_local = Engine.local_time ctx;
  }

let protocol ?tuning ~n ~delta ~oracle () =
  let tuning =
    match tuning with Some t -> t | None -> default_tuning ~delta
  in
  if tuning.theta <= 0. then
    invalid_arg "Traditional_paxos.protocol: theta must be positive";
  let cfg = { n; tuning; oracle } in
  let boot ctx =
    let st = initial_state ctx cfg in
    Engine.set_timer ctx ~local_delay:tuning.theta ~tag:tick_tag;
    st
  in
  let on_message ctx st ~src msg =
    match msg with
    | Paxos_messages.P1a { mbal } -> handle_1a ctx st mbal
    | Paxos_messages.P1b { mbal; vote } -> handle_1b ctx st ~src mbal vote
    | Paxos_messages.P2a { mbal; value } -> handle_2a ctx st mbal value
    | Paxos_messages.P2b { mbal; value } -> handle_2b ctx st ~src mbal value
    | Paxos_messages.Rejected { mbal } -> handle_rejected ctx st mbal
    | Paxos_messages.Decision { value } -> record_decision ctx st value
  in
  let resume ctx st =
    let st = { st with last_progress_local = Engine.local_time ctx } in
    Engine.set_timer ctx ~local_delay:tuning.theta ~tag:tick_tag;
    st
  in
  Engine.persistent ~name:"traditional-paxos" ~boot ~on_message
    ~on_timer:(fun ctx st ~tag:_ -> on_tick ctx st)
    ~resume ~msg_payload:Paxos_messages.payload
