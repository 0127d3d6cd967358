open Consensus
module Engine = Sim.Engine

module Imap = Map.Make (Int)

type options = { session_gate : bool; prestart : bool }

let default_options = { session_gate = true; prestart = false }

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

let n_of st = st.cfg.Config.n

(* ------------------------------------------------------------------ *)
(* Session rules                                                       *)
(* ------------------------------------------------------------------ *)

module Core = Session.Make (struct
  type msg = Messages.t

  type nonrec state = state

  let p1a mbal = Messages.P1a { mbal }

  let msg_ballot = Messages.mbal

  let config st = st.cfg

  let ballot st = st.mbal

  let session st = st.session

  let with_session st session = { st with session }

  let last_active_local st = st.last_active_local

  let with_last_active_local st last_active_local =
    { st with last_active_local }

  let session_gate st = st.opts.session_gate

  let adopt st b =
    {
      st with
      mbal = b;
      p1b_from = Quorum.create ~n:(n_of st);
      p1b_votes = [];
      sent_2a = false;
    }

  (* Session entries are recorded as trace notes ("session:<k>:<how>")
     so tests can verify the proof's step-1 invariant from traces. *)
  let enter ctx st session how =
    let st = { st with session } in
    (match how with
    | Session.Start -> Engine.count ctx "phase1_starts"
    | Session.Adopt -> ());
    let buf = Sim.Scratch.buffer (Engine.scratch ctx) in
    Buffer.add_string buf "session:";
    Sim.Numfmt.add_int buf session.Session.number;
    Buffer.add_char buf ':';
    Buffer.add_string buf (Session.entry_label how);
    Engine.note ctx (Buffer.contents buf);
    Engine.count ctx "session_entries";
    st

  let rearm_at_remainder = true

  let arm_own_timers _ _ = ()
end)

let record_decision ctx st v =
  Engine.decide ctx v;
  match st.decided with
  | Some _ -> st
  | None ->
      if st.cfg.Config.broadcast_decision then
        Engine.broadcast ctx (Messages.Decision { value = v });
      { st with decided = Some v }

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_1a ctx st b =
  if b >= st.mbal then begin
    let st = if b > st.mbal then Core.adopt_ballot ctx st b else st in
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
      Core.mark_active ctx { st with sent_2a = true }
    end
    else st
  end
  else st

let handle_2a ctx st b value =
  if b >= st.mbal then begin
    let st = if b > st.mbal then Core.adopt_ballot ctx st b else st in
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

let boot cfg opts ctx =
  let st = initial_state ctx cfg opts in
  Core.arm_timers ctx st;
  if opts.prestart && Engine.self ctx = 0 then begin
    (* Phase 1 of ballot 0 "executed in advance": open with a 2a. *)
    Engine.broadcast ctx
      (Messages.P2a { mbal = 0; value = st.proposal });
    Core.mark_active ctx { st with sent_2a = true }
  end
  else st

let on_message ctx st ~src msg =
  let st =
    match msg with
    | Messages.P1a { mbal } -> handle_1a ctx st mbal
    | Messages.P1b { mbal; vote } -> handle_1b ctx st ~src mbal vote
    | Messages.P2a { mbal; value } -> handle_2a ctx st mbal value
    | Messages.P2b { mbal; value } -> handle_2b ctx st ~src mbal value
    | Messages.Decision { value } -> record_decision ctx st value
  in
  Core.hear ctx st ~src msg

let on_timer ctx st ~tag =
  if tag = Session.resend_tag then begin
    (* The paper's optional optimization: deciders periodically
       re-broadcast their decision so late restarters catch up in one
       message delay instead of one session turnover. *)
    (match st.decided with
    | Some v when st.cfg.Config.broadcast_decision ->
        Engine.broadcast ctx (Messages.Decision { value = v })
    | Some _ | None -> ());
    Core.resend ctx st
  end
  else if Core.session_timer_due st ~tag then Core.expire_session ctx st
  else st (* stale timer from an earlier session *)

let protocol ?(options = default_options) cfg =
  Engine.persistent
    ~name:
      (if options.session_gate then "modified-paxos"
       else "modified-paxos-ungated")
    ~boot:(boot cfg options) ~on_message ~on_timer ~resume:Core.resume
    ~msg_payload:(Messages.payload ~n:cfg.Config.n)
