open Consensus
module Engine = Sim.Engine

type tuning = { period : float; timeout : float }

let default_tuning ~delta =
  let period = delta /. 2. in
  { period; timeout = (2. *. delta) +. period }

type msg = Heartbeat of { id : Types.proc_id }

type config = { n : int; tuning : tuning }

type state = {
  cfg : config;
  last_heard : float array;  (* local receipt time of freshest heartbeat *)
  estimate : Types.proc_id option;  (* current heartbeat-backed leader *)
  estimate_since : float;  (* local time the estimate last changed *)
  decided : bool;
}

let tick_tag = 0

let never = Float.neg_infinity

(* Lowest id whose heartbeat is still within the trust window. *)
let backed_leader st ~local_now =
  let rec scan i =
    if i >= st.cfg.n then None
    else if local_now -. st.last_heard.(i) <= st.cfg.tuning.timeout then
      Some i
    else scan (i + 1)
  in
  scan 0

(* Track estimate changes; a decision is the first leader that stays the
   estimate for a full trust window (by then every staler heartbeat the
   process had seen has expired). *)
let refresh ctx st =
  let local_now = Engine.local_time ctx in
  let leader = backed_leader st ~local_now in
  let st =
    if leader <> st.estimate then
      { st with estimate = leader; estimate_since = local_now }
    else st
  in
  match st.estimate with
  | Some id
    when (not st.decided)
         && local_now -. st.estimate_since >= st.cfg.tuning.timeout ->
      Engine.decide ctx id;
      { st with decided = true }
  | _ -> st

let on_message_impl ctx st ~src:_ (Heartbeat { id }) =
  let last_heard = Array.copy st.last_heard in
  last_heard.(id) <- Engine.local_time ctx;
  refresh ctx { st with last_heard }

let on_timer_impl ctx st ~tag:_ =
  Engine.broadcast ctx (Heartbeat { id = Engine.self ctx });
  Engine.set_timer ctx ~local_delay:st.cfg.tuning.period ~tag:tick_tag;
  refresh ctx st

let initial_state ctx cfg =
  {
    cfg;
    last_heard = Array.make cfg.n never;
    estimate = None;
    estimate_since = Engine.local_time ctx;
    decided = false;
  }

let protocol ?tuning ~n ~delta () =
  let tuning =
    match tuning with Some t -> t | None -> default_tuning ~delta
  in
  if tuning.period <= 0. || tuning.timeout <= tuning.period then
    invalid_arg "Heartbeat_omega.protocol: need 0 < period < timeout";
  let cfg = { n; tuning } in
  let boot ctx =
    let st = initial_state ctx cfg in
    Engine.broadcast ctx (Heartbeat { id = Engine.self ctx });
    Engine.set_timer ctx ~local_delay:tuning.period ~tag:tick_tag;
    Engine.persist ctx st;
    st
  in
  {
    Engine.name = "heartbeat-omega";
    on_boot = boot;
    on_message =
      (fun ctx st ~src msg ->
        let st' = on_message_impl ctx st ~src msg in
        Engine.persist ctx st';
        st');
    on_timer =
      (fun ctx st ~tag ->
        let st' = on_timer_impl ctx st ~tag in
        Engine.persist ctx st';
        st');
    on_restart =
      (fun ctx ~persisted ->
        match persisted with
        | None -> boot ctx
        | Some st ->
            Engine.set_timer ctx ~local_delay:tuning.period ~tag:tick_tag;
            Engine.persist ctx st;
            st);
    msg_payload =
      (fun (Heartbeat { id }) ->
        Sim.Trace.payload ~detail:(Sim.Numfmt.prefixed "p" id) "hb");
  }
