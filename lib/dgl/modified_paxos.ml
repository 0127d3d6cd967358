open Consensus
module Engine = Sim.Engine

module Imap = Map.Make (Int)

type options = { session_gate : bool; prestart : bool }

let default_options = { session_gate = true; prestart = false }

let resend_tag = -1

type state = {
  cfg : Config.t;
  opts : options;
  mbal : Ballot.t;
  vote : Vote.t;  (* highest accepted (vbal, vval) *)
  session : Session.t;
  proposal : Types.value;
  p1b_from : Quorum.t;  (* senders of 1b for [mbal] while we own it *)
  p1b_votes : Vote.t list;
  sent_2a : bool;
  p2b : (Quorum.t * Types.value) Imap.t;  (* ballot -> (who sent 2b, value) *)
  decided : Types.value option;
  last_active_local : float;  (* local time of last 1a/2a send *)
}

let mbal st = st.mbal

let session_number st = st.session.Session.number

let decided st = st.decided

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let n_of st = st.cfg.Config.n

let mark_active ctx st = { st with last_active_local = Engine.local_time ctx }

let gossip_1a ctx st =
  Engine.broadcast ctx (Messages.P1a { mbal = st.mbal });
  mark_active ctx st

(* Raise [mbal] to [b] (strictly higher).  Clears ballot-scoped
   bookkeeping; if the session number advances this also re-arms the
   session timer and gossips a 1a, per "a process sends a phase 1a
   message to all other processes whenever it begins a new session".
   Session entries are recorded as trace notes ("session:<n>:<how>") so
   tests can verify the proof's step-1 invariant from traces. *)
let adopt_ballot ?(how = "adopt") ctx st b =
  assert (b > st.mbal);
  let n = n_of st in
  let new_session = Ballot.session ~n b in
  let st =
    {
      st with
      mbal = b;
      p1b_from = Quorum.create ~n;
      p1b_votes = [];
      sent_2a = false;
    }
  in
  if new_session > st.session.Session.number then begin
    let st = { st with session = Session.enter st.session ~number:new_session } in
    let buf = Sim.Scratch.buffer (Engine.scratch ctx) in
    Buffer.add_string buf "session:";
    Sim.Numfmt.add_int buf new_session;
    Buffer.add_char buf ':';
    Buffer.add_string buf how;
    Engine.note ctx (Buffer.contents buf);
    Engine.count ctx "session_entries";
    Engine.set_timer ctx ~local_delay:st.cfg.Config.timer_local
      ~tag:new_session;
    gossip_1a ctx st
  end
  else st

let record_decision ctx st v =
  Engine.decide ctx v;
  match st.decided with
  | Some _ -> st
  | None ->
      if st.cfg.Config.broadcast_decision then
        Engine.broadcast ctx (Messages.Decision { value = v });
      { st with decided = Some v }

(* Start Phase 1: jump to the next session with a self-owned ballot.
   [adopt_ballot] performs the session entry, timer reset and 1a
   broadcast. *)
let start_phase1 ctx st =
  let b =
    Ballot.next_session ~n:(n_of st) ~proc:(Engine.self ctx) st.mbal
  in
  Engine.count ctx "phase1_starts";
  adopt_ballot ~how:"start" ctx st b

let can_start st =
  if st.opts.session_gate then Session.can_start_phase1 st.session
  else st.session.Session.timer_expired

let maybe_start_phase1 ctx st =
  if can_start st then start_phase1 ctx st else st

(* Majority-in-session bookkeeping: any message whose ballot carries the
   current session counts as contact with its transport-level sender
   (see Messages.session_sender for why not the ballot owner). *)
let hear ctx st ~src msg =
  match Messages.session_sender ~n:(n_of st) ~src msg with
  | None -> st
  | Some sender -> (
      match Messages.mbal msg with
      | None -> st
      | Some b ->
          if Ballot.session ~n:(n_of st) b = st.session.Session.number then
            let st = { st with session = Session.hear st.session sender } in
            maybe_start_phase1 ctx st
          else st)

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_1a ctx st b =
  if b >= st.mbal then begin
    let st = if b > st.mbal then adopt_ballot ctx st b else st in
    Engine.send ctx
      ~dst:(Ballot.owner ~n:(n_of st) b)
      (Messages.P1b { mbal = b; vote = st.vote });
    st
  end
  else st (* no Reject action in the modified algorithm *)

let handle_1b ctx st ~src b vote =
  if b = st.mbal
     && Ballot.owner ~n:(n_of st) b = Engine.self ctx
     && not st.sent_2a
     && not (Quorum.mem st.p1b_from src)
  then begin
    let st =
      {
        st with
        p1b_from = Quorum.add st.p1b_from src;
        p1b_votes = vote :: st.p1b_votes;
      }
    in
    if Quorum.reached st.p1b_from then begin
      let value = Vote.choose ~fallback:st.proposal st.p1b_votes in
      Engine.broadcast ctx (Messages.P2a { mbal = b; value });
      mark_active ctx { st with sent_2a = true }
    end
    else st
  end
  else st

let handle_2a ctx st b value =
  if b >= st.mbal then begin
    let st = if b > st.mbal then adopt_ballot ctx st b else st in
    let st = { st with vote = Vote.make ~vbal:b ~vval:value } in
    Engine.broadcast ctx (Messages.P2b { mbal = b; value });
    st
  end
  else st

let handle_2b ctx st ~src b value =
  let who, v =
    match Imap.find_opt b st.p2b with
    | Some (q, v) -> (q, v)
    | None -> (Quorum.create ~n:(n_of st), value)
  in
  (* All honest 2b messages for one ballot carry the same value. *)
  if v <> value then st
  else
    let who = Quorum.add who src in
    let st = { st with p2b = Imap.add b (who, v) st.p2b } in
    if Quorum.reached who then record_decision ctx st v else st

(* ------------------------------------------------------------------ *)
(* Protocol record                                                     *)
(* ------------------------------------------------------------------ *)

let initial_state ctx cfg opts =
  let self = Engine.self ctx in
  let mbal =
    if opts.prestart then 0 else Ballot.initial ~proc:self
  in
  {
    cfg;
    opts;
    mbal;
    vote = Vote.none;
    session = Session.initial ~n:cfg.Config.n;
    proposal = Engine.proposal ctx;
    p1b_from = Quorum.create ~n:cfg.Config.n;
    p1b_votes = [];
    sent_2a = false;
    p2b = Imap.empty;
    decided = None;
    last_active_local = Engine.local_time ctx;
  }

let arm_timers ctx st =
  Engine.set_timer ctx ~local_delay:st.cfg.Config.timer_local
    ~tag:st.session.Session.number;
  Engine.set_timer ctx ~local_delay:st.cfg.Config.epsilon ~tag:resend_tag

let on_boot_impl cfg opts ctx =
  let st = initial_state ctx cfg opts in
  arm_timers ctx st;
  if opts.prestart && Engine.self ctx = 0 then begin
    (* Phase 1 of ballot 0 "executed in advance": open with a 2a. *)
    Engine.broadcast ctx
      (Messages.P2a { mbal = 0; value = st.proposal });
    mark_active ctx { st with sent_2a = true }
  end
  else st

let on_message_impl ctx st ~src msg =
  let st =
    match msg with
    | Messages.P1a { mbal } -> handle_1a ctx st mbal
    | Messages.P1b { mbal; vote } -> handle_1b ctx st ~src mbal vote
    | Messages.P2a { mbal; value } -> handle_2a ctx st mbal value
    | Messages.P2b { mbal; value } -> handle_2b ctx st ~src mbal value
    | Messages.Decision { value } -> record_decision ctx st value
  in
  hear ctx st ~src msg

let on_timer_impl ctx st ~tag =
  if tag = resend_tag then begin
    let lnow = Engine.local_time ctx in
    let eps = st.cfg.Config.epsilon in
    (* The paper's optional optimization: deciders periodically
       re-broadcast their decision so late restarters catch up in one
       message delay instead of one session turnover. *)
    (match st.decided with
    | Some v when st.cfg.Config.broadcast_decision ->
        Engine.broadcast ctx (Messages.Decision { value = v })
    | Some _ | None -> ());
    let quiet = lnow -. st.last_active_local in
    if quiet >= eps -. (eps *. 1e-9) then begin
      let st = gossip_1a ctx st in
      Engine.set_timer ctx ~local_delay:eps ~tag:resend_tag;
      st
    end
    else begin
      Engine.set_timer ctx ~local_delay:(eps -. quiet) ~tag:resend_tag;
      st
    end
  end
  else if
    tag = st.session.Session.number && not st.session.Session.timer_expired
  then
    let st = { st with session = Session.expire st.session } in
    maybe_start_phase1 ctx st
  else st (* stale timer from an earlier session *)

let on_restart_impl cfg opts ctx ~persisted =
  match persisted with
  | None -> on_boot_impl cfg opts ctx
  | Some st ->
      (* Resume where we left off (state was in stable storage); volatile
         timers are gone, so re-arm them and re-evaluate enablement. *)
      let st = { st with last_active_local = Engine.local_time ctx } in
      arm_timers ctx st;
      maybe_start_phase1 ctx st

let with_persist f ctx st =
  let st' = f ctx st in
  Engine.persist ctx st';
  st'

let protocol ?(options = default_options) cfg =
  {
    Engine.name =
      (if options.session_gate then "modified-paxos"
       else "modified-paxos-ungated");
    on_boot =
      (fun ctx ->
        let st = on_boot_impl cfg options ctx in
        Engine.persist ctx st;
        st);
    on_message =
      (fun ctx st ~src msg ->
        with_persist (fun ctx st -> on_message_impl ctx st ~src msg) ctx st);
    on_timer =
      (fun ctx st ~tag ->
        with_persist (fun ctx st -> on_timer_impl ctx st ~tag) ctx st);
    on_restart =
      (fun ctx ~persisted ->
        let st = on_restart_impl cfg options ctx ~persisted in
        Engine.persist ctx st;
        st);
    msg_payload = Messages.payload ~n:cfg.Config.n;
  }
