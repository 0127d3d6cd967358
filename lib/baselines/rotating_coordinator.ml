open Consensus
module Engine = Sim.Engine
module Imap = Map.Make (Int)

type tuning = {
  round_timeout : float;
  epsilon : float;
  broadcast_decision : bool;
}

let default_tuning ~delta =
  {
    round_timeout = 4. *. delta;
    epsilon = delta /. 4.;
    broadcast_decision = true;
  }

let resend_tag = -1

let coordinator ~n r = r mod n

type config = { n : int; tuning : tuning }

type state = {
  cfg : config;
  round : int;
  est : Types.value;
  ts : int;  (* round that locked [est]; -1 initially *)
  presence : Quorum.t;  (* senders of current-round messages *)
  round_expired : bool;
  (* coordinator bookkeeping for the current round *)
  est_from : Quorum.t;
  est_best : Types.value * int;  (* max-ts estimate seen, with its ts *)
  proposed : bool;
  acked : bool;  (* did we already ack a proposal this round *)
  acks : (Quorum.t * Types.value) Imap.t;  (* per round *)
  decided : Types.value option;
}

let round st = st.round

let estimate st = st.est

let decided st = st.decided

let broadcast_estimate ctx st =
  Engine.broadcast ctx
    (Rotating_messages.Estimate { round = st.round; est = st.est; ts = st.ts })

let enter_round ctx st r =
  assert (r > st.round);
  let n = st.cfg.n in
  let st =
    {
      st with
      round = r;
      presence = Quorum.create ~n;
      round_expired = false;
      est_from = Quorum.create ~n;
      est_best = (st.est, st.ts);
      proposed = false;
      acked = false;
    }
  in
  Engine.set_timer ctx ~local_delay:st.cfg.tuning.round_timeout ~tag:r;
  broadcast_estimate ctx st;
  st

let maybe_advance ctx st =
  if st.round_expired && Quorum.reached st.presence then
    enter_round ctx st (st.round + 1)
  else st

let record_decision ctx st v =
  Engine.decide ctx v;
  match st.decided with
  | Some _ -> st
  | None ->
      if st.cfg.tuning.broadcast_decision then
        Engine.broadcast ctx (Rotating_messages.Decision { value = v });
      { st with decided = Some v }

(* Coordinator side: a majority of estimates locks the proposal to the
   highest-timestamp one (the Chandra-Toueg safety rule). *)
let handle_estimate ctx st ~src est ts =
  if coordinator ~n:st.cfg.n st.round <> Engine.self ctx || st.proposed then st
  else if Quorum.mem st.est_from src then st
  else begin
    let est_from = Quorum.add st.est_from src in
    let est_best = if ts > snd st.est_best then (est, ts) else st.est_best in
    let st = { st with est_from; est_best } in
    if Quorum.reached est_from then begin
      let value = fst st.est_best in
      Engine.broadcast ctx
        (Rotating_messages.Propose { round = st.round; value });
      { st with proposed = true }
    end
    else st
  end

let handle_propose ctx st value =
  if st.acked then st
  else begin
    let st = { st with est = value; ts = st.round; acked = true } in
    Engine.broadcast ctx (Rotating_messages.Ack { round = st.round; value });
    st
  end

let handle_ack ctx st ~src r value =
  let who, v =
    match Imap.find_opt r st.acks with
    | Some (q, v) -> (q, v)
    | None -> (Quorum.create ~n:st.cfg.n, value)
  in
  if v <> value then st
  else begin
    let who = Quorum.add who src in
    let st = { st with acks = Imap.add r (who, v) st.acks } in
    if Quorum.reached who then record_decision ctx st v else st
  end

let on_message_impl ctx st ~src msg =
  match msg with
  | Rotating_messages.Decision { value } -> record_decision ctx st value
  | Rotating_messages.Estimate _ | Rotating_messages.Propose _
  | Rotating_messages.Ack _ -> (
      match Rotating_messages.round_of msg with
      | None -> st
      | Some r ->
          if st.decided <> None then begin
            (* Help laggards: answer protocol traffic with the decision. *)
            (match st.decided with
            | Some v ->
                Engine.send ctx ~dst:src
                  (Rotating_messages.Decision { value = v })
            | None -> ());
            st
          end
          else if r < st.round then
            (* Stale-round acks may still complete a majority. *)
            match msg with
            | Rotating_messages.Ack { round; value } ->
                handle_ack ctx st ~src round value
            | Rotating_messages.Estimate _ | Rotating_messages.Propose _
            | Rotating_messages.Decision _ ->
                st
          else begin
            (* Jump to a higher round on receipt of one of its messages
               (allowed: only *spontaneous* advancement is gated). *)
            let st = if r > st.round then enter_round ctx st r else st in
            let st = { st with presence = Quorum.add st.presence src } in
            let st =
              match msg with
              | Rotating_messages.Estimate { est; ts; _ } ->
                  handle_estimate ctx st ~src est ts
              | Rotating_messages.Propose { value; _ } ->
                  handle_propose ctx st value
              | Rotating_messages.Ack { round; value } ->
                  handle_ack ctx st ~src round value
              | Rotating_messages.Decision _ -> st
            in
            maybe_advance ctx st
          end)

let on_timer_impl ctx st ~tag =
  if tag = resend_tag then begin
    if st.decided = None then broadcast_estimate ctx st;
    Engine.set_timer ctx ~local_delay:st.cfg.tuning.epsilon ~tag:resend_tag;
    st
  end
  else if tag = st.round && not st.round_expired then
    maybe_advance ctx { st with round_expired = true }
  else st

let initial_state ctx cfg =
  {
    cfg;
    round = 0;
    est = Engine.proposal ctx;
    ts = -1;
    presence = Quorum.create ~n:cfg.n;
    round_expired = false;
    est_from = Quorum.create ~n:cfg.n;
    est_best = (Engine.proposal ctx, -1);
    proposed = false;
    acked = false;
    acks = Imap.empty;
    decided = None;
  }

let protocol ?tuning ~n ~delta () =
  let tuning =
    match tuning with Some t -> t | None -> default_tuning ~delta
  in
  if tuning.round_timeout <= 0. || tuning.epsilon <= 0. then
    invalid_arg "Rotating_coordinator.protocol: non-positive timeout";
  let cfg = { n; tuning } in
  let boot ctx =
    let st = initial_state ctx cfg in
    Engine.set_timer ctx ~local_delay:tuning.round_timeout ~tag:0;
    Engine.set_timer ctx ~local_delay:tuning.epsilon ~tag:resend_tag;
    broadcast_estimate ctx st;
    st
  in
  let resume ctx st =
    Engine.set_timer ctx ~local_delay:tuning.round_timeout ~tag:st.round;
    Engine.set_timer ctx ~local_delay:tuning.epsilon ~tag:resend_tag;
    st
  in
  Engine.persistent ~name:"rotating-coordinator" ~boot
    ~on_message:on_message_impl ~on_timer:on_timer_impl ~resume
    ~msg_payload:Rotating_messages.payload
