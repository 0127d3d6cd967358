open Consensus
module Engine = Sim.Engine

type t = { n : int; number : int; heard : Quorum.t; timer_expired : bool }

let initial ~n =
  { n; number = 0; heard = Quorum.create ~n; timer_expired = false }

let enter t ~number =
  if number <= t.number then invalid_arg "Session.enter: not a later session";
  { t with number; heard = Quorum.create ~n:t.n; timer_expired = false }

let hear t p = { t with heard = Quorum.add t.heard p }

let expire t = { t with timer_expired = true }

let can_start_phase1 t =
  t.timer_expired && (t.number = 0 || Quorum.reached t.heard)

let pp fmt t =
  Format.fprintf fmt "session{%d; heard=%a; expired=%b}" t.number Quorum.pp
    t.heard t.timer_expired

(* ------------------------------------------------------------------ *)
(* The session rules, written once for every Paxos variant             *)
(* ------------------------------------------------------------------ *)

type entry = Adopt | Start

let entry_label = function Adopt -> "adopt" | Start -> "start"

let resend_tag = -1

module type PROTOCOL = sig
  type msg

  type state

  val p1a : Ballot.t -> msg

  val msg_ballot : msg -> Ballot.t option

  val config : state -> Config.t

  val ballot : state -> Ballot.t

  val session : state -> t

  val with_session : state -> t -> state

  val last_active_local : state -> float

  val with_last_active_local : state -> float -> state

  val session_gate : state -> bool

  val adopt : state -> Ballot.t -> state

  val enter : (msg, state) Engine.ctx -> state -> t -> entry -> state

  val rearm_at_remainder : bool

  val arm_own_timers : (msg, state) Engine.ctx -> state -> unit
end

module Make (P : PROTOCOL) = struct
  type ctx = (P.msg, P.state) Engine.ctx

  let mark_active ctx st = P.with_last_active_local st (Engine.local_time ctx)

  let gossip_1a ctx st =
    Engine.broadcast ctx (P.p1a (P.ballot st));
    mark_active ctx st

  (* Raise the ballot to [b] (strictly higher).  When the session
     advances this also re-arms the session timer and gossips a 1a, per
     "a process sends a phase 1a message to all other processes whenever
     it begins a new session". *)
  let enter_ballot ctx st b how =
    assert (b > P.ballot st);
    let st = P.adopt st b in
    let number = Ballot.session ~n:(P.config st).Config.n b in
    let session = P.session st in
    if number > session.number then begin
      let st = P.enter ctx st (enter session ~number) how in
      Engine.set_timer ctx ~local_delay:(P.config st).Config.timer_local
        ~tag:number;
      gossip_1a ctx st
    end
    else st

  let adopt_ballot ctx st b = enter_ballot ctx st b Adopt

  (* Start Phase 1: jump to the next session with a self-owned ballot. *)
  let start_phase1 ctx st =
    let b =
      Ballot.next_session ~n:(P.config st).Config.n ~proc:(Engine.self ctx)
        (P.ballot st)
    in
    enter_ballot ctx st b Start

  let can_start st =
    let session = P.session st in
    if P.session_gate st then can_start_phase1 session
    else session.timer_expired

  let maybe_start_phase1 ctx st =
    if can_start st then start_phase1 ctx st else st

  (* Majority-in-session bookkeeping.  A message whose ballot carries
     the current session counts as contact with its transport-level
     sender [src], not with the ballot's owner.  The paper's
     parenthetical "any phase 1a message m is treated as if it were sent
     by process m.mbal mod N" governs the Paxos role of a relayed 1a (in
     particular, where the 1b answer goes — see the proof of step 2,
     where a process must receive "phase 1a messages from every process
     in W" even though they all relay the same ballot), not whom the
     message counts as contact with.  A message without a ballot (a
     decision) is contact with nobody. *)
  let hear ctx st ~src msg =
    match P.msg_ballot msg with
    | None -> st
    | Some b ->
        let session = P.session st in
        if Ballot.session ~n:(P.config st).Config.n b = session.number then
          maybe_start_phase1 ctx (P.with_session st (hear session src))
        else st

  let arm_session_timer ctx st =
    Engine.set_timer ctx ~local_delay:(P.config st).Config.timer_local
      ~tag:(P.session st).number

  let arm_timers ctx st =
    arm_session_timer ctx st;
    Engine.set_timer ctx ~local_delay:(P.config st).Config.epsilon
      ~tag:resend_tag;
    P.arm_own_timers ctx st

  (* The rest of the epsilon tick: a process that has sent no 1a/2a for
     epsilon gossips its 1a again. *)
  let resend ctx st =
    let eps = (P.config st).Config.epsilon in
    let quiet = Engine.local_time ctx -. P.last_active_local st in
    if quiet >= eps -. (eps *. 1e-9) then begin
      let st = gossip_1a ctx st in
      Engine.set_timer ctx ~local_delay:eps ~tag:resend_tag;
      st
    end
    else begin
      if P.rearm_at_remainder then
        Engine.set_timer ctx ~local_delay:(eps -. quiet) ~tag:resend_tag
      else Engine.set_timer ctx ~local_delay:eps ~tag:resend_tag;
      st
    end

  (* A timer tagged with an earlier session, or one that already fired,
     is stale. *)
  let session_timer_due st ~tag =
    let session = P.session st in
    tag = session.number && not session.timer_expired

  let expire_session ctx st =
    maybe_start_phase1 ctx (P.with_session st (expire (P.session st)))

  (* Resume from stable storage: volatile timers are gone, so re-arm
     them and re-evaluate enablement. *)
  let resume ctx st =
    let st = mark_active ctx st in
    arm_timers ctx st;
    maybe_start_phase1 ctx st
end
