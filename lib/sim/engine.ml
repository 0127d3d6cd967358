type ('msg, 'state) protocol = ('msg, 'state) Runtime.protocol = {
  name : string;
  on_boot : ('msg, 'state) Runtime.ctx -> 'state;
  on_message :
    ('msg, 'state) Runtime.ctx -> 'state -> src:int -> 'msg -> 'state;
  on_timer : ('msg, 'state) Runtime.ctx -> 'state -> tag:int -> 'state;
  on_restart :
    ('msg, 'state) Runtime.ctx -> persisted:'state option -> 'state;
  msg_payload : 'msg -> Trace.payload;
}

type ('msg, 'state) ctx = ('msg, 'state) Runtime.ctx

(* Events are packed into the five int words of [Packed_queue]: the
   bit-cast fire time, an order word [(seq lsl kind_bits) lor kind]
   (so simultaneous events fire in scheduling order and the kind rides
   along for free), and three payload words:

     Deliver: f1 = src, f2 = dst, f3 = arena slot of the message
     Timer:   f1 = proc, f2 = incarnation at arming time, f3 = tag
     Fault:   f1 = proc, f2 = action (0 = crash, 1 = restart)

   Messages themselves live in a per-run arena ([arena_msgs] and
   friends): a slot is claimed per *sent* message, shared by all
   scheduled copies via a refcount, and recycled through a free list
   once the last copy leaves the queue — so a steady-state run touches a
   constant set of slots and the event loop allocates nothing.  A traced
   run also keeps, per slot, the trace record number of the message's
   send, so each delivery copies that record instead of building the
   payload again. *)

let kind_bits = 2
let kind_mask = (1 lsl kind_bits) - 1
let kind_deliver = 0
let kind_timer = 1
let kind_fault = 2

type ('msg, 'state) t = {
  scenario : Scenario.t;
  protocol : ('msg, 'state) protocol;
  queue : Packed_queue.t;
  mutable now_key : int;  (* Sim_time.key_of_t of current time *)
  mutable next_seq : int;
  (* Message arena.  [arena_ids] holds the trace message id while a slot
     is live and the next-free link while it is on the free list; a
     freed slot keeps its last message reachable until reuse (bounded by
     arena size, which itself is bounded by peak in-flight messages). *)
  mutable arena_msgs : 'msg array;
  mutable arena_ids : int array;
  mutable arena_refs : int array;
  (* Trace record number of each live slot's send (-1: none recorded);
     allocated only when the run records a trace. *)
  mutable arena_recs : int array;
  mutable arena_len : int;
  mutable free_head : int;  (* -1 = none *)
  net_env : Network.env;
  net_delays : Network.delays;
  states : 'state option array;  (* None = process down *)
  incarnations : int array;
  clocks : Clock.t array;
  storage : 'state Stable_storage.t;
  net_rng : Prng.t;
  proc_rngs : Prng.t array;
  decision_times : Sim_time.t option array;
  decision_values : int option array;
  trace : Trace.t;
  metrics : Registry.t;
  h_sent : Registry.handle;
  h_delivered : Registry.handle;
  h_dropped : Registry.handle;
  mutable next_msg_id : int;
  mutable ctxs : ('msg, 'state) ctx array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable pending_faults : int;
  mutable events_processed : int;
  mutable agreement_violation : (int * int * int * int) option;
  (* Incremental mirrors of the [states] / [decision_values] arrays so
     the stop test is O(1) per event instead of an O(N) rescan:
     [up_count] = processes with [states.(p) <> None];
     [undecided_up_count] = up processes that have not decided. *)
  mutable up_count : int;
  mutable undecided_up_count : int;
}

(* Local inline copies of the [Sim_time] key bit-casts.  The hot path
   must not call float-returning functions in other modules: under the
   dev profile cross-module calls are opaque (no inlining), so e.g. a
   [Sim_time.t_of_key] call would box its float result on every event.
   These bodies are pure externals, which stay direct in every profile;
   [Sim_time.key_of_t] documents the encoding. *)
let[@inline] key_of_time t =
  Int64.to_int (Int64.bits_of_float t) lxor Stdlib.min_int

let[@inline] time_of_key k =
  Int64.float_of_bits
    (Int64.logand (Int64.of_int (k lxor Stdlib.min_int)) Int64.max_int)

let[@inline] now eng = time_of_key eng.now_key

let negative_event_time () : int =
  invalid_arg "Engine: event time must be >= 0"

(* Bit-cast keys only order correctly for non-negative times; negative
   instants have no meaning in the model, so reject them loudly.  The
   [>=] comparison also rejects NaN. *)
let[@inline] key_of_event_time at =
  if at >= 0. then key_of_time at else negative_event_time ()

let schedule_packed eng ~key ~kind ~f1 ~f2 ~f3 =
  let seq = eng.next_seq in
  eng.next_seq <- seq + 1;
  Packed_queue.add eng.queue ~key
    ~ord:((seq lsl kind_bits) lor kind)
    ~f1 ~f2 ~f3

(* ------------------------------------------------------------------ *)
(* Message arena                                                       *)
(* ------------------------------------------------------------------ *)

let arena_grow eng filler =
  let cap = Array.length eng.arena_refs in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let msgs = Array.make ncap filler in
  Array.blit eng.arena_msgs 0 msgs 0 cap;
  let ids = Array.make ncap 0 in
  Array.blit eng.arena_ids 0 ids 0 cap;
  let refs = Array.make ncap 0 in
  Array.blit eng.arena_refs 0 refs 0 cap;
  if Trace.enabled eng.trace then begin
    let recs = Array.make ncap (-1) in
    Array.blit eng.arena_recs 0 recs 0 cap;
    eng.arena_recs <- recs
  end;
  eng.arena_msgs <- msgs;
  eng.arena_ids <- ids;
  eng.arena_refs <- refs

let arena_alloc eng msg ~id ~refs ~sent =
  let slot =
    match eng.free_head with
    | -1 ->
        if eng.arena_len = Array.length eng.arena_refs then
          arena_grow eng msg;
        let s = eng.arena_len in
        eng.arena_len <- s + 1;
        s
    | s ->
        eng.free_head <- eng.arena_ids.(s);
        s
  in
  eng.arena_msgs.(slot) <- msg;
  eng.arena_ids.(slot) <- id;
  eng.arena_refs.(slot) <- refs;
  if Trace.enabled eng.trace then eng.arena_recs.(slot) <- sent;
  slot

let arena_release eng slot =
  let r = eng.arena_refs.(slot) - 1 in
  eng.arena_refs.(slot) <- r;
  if r = 0 then begin
    eng.arena_ids.(slot) <- eng.free_head;
    eng.free_head <- slot
  end

(* ------------------------------------------------------------------ *)
(* Context operations (thin wrappers over the closure record so that   *)
(* protocol code reads [Engine.send ctx ...])                          *)
(* ------------------------------------------------------------------ *)

let self (c : _ ctx) = c.Runtime.self

let n_processes (c : _ ctx) = c.Runtime.n

let proposal (c : _ ctx) = c.Runtime.proposal

let local_time (c : _ ctx) = c.Runtime.local_time ()

let send (c : _ ctx) ~dst msg = c.Runtime.send ~dst msg

let broadcast (c : _ ctx) msg = c.Runtime.broadcast msg

let set_timer (c : _ ctx) ~local_delay ~tag =
  c.Runtime.set_timer ~local_delay ~tag

let persist (c : _ ctx) st = c.Runtime.persist st

let decide (c : _ ctx) v = c.Runtime.decide v

let has_decided (c : _ ctx) = c.Runtime.has_decided ()

let rng (c : _ ctx) = c.Runtime.rng

let scratch (c : _ ctx) = c.Runtime.scratch

let note (c : _ ctx) text = c.Runtime.note text

let count (c : _ ctx) name = c.Runtime.count name

let oracle_time (c : _ ctx) = c.Runtime.oracle_time ()

let persistent ~name ~boot ~on_message ~on_timer ~resume ~msg_payload =
  let stored ctx st =
    persist ctx st;
    st
  in
  {
    name;
    on_boot = (fun ctx -> stored ctx (boot ctx));
    on_message =
      (fun ctx st ~src msg -> stored ctx (on_message ctx st ~src msg));
    on_timer = (fun ctx st ~tag -> stored ctx (on_timer ctx st ~tag));
    on_restart =
      (fun ctx ~persisted ->
        match persisted with
        | None -> stored ctx (boot ctx)
        | Some st -> stored ctx (resume ctx st));
    msg_payload;
  }

(* ------------------------------------------------------------------ *)
(* Simulator implementations of the context capabilities               *)
(* ------------------------------------------------------------------ *)

(* Stands in for the payload of a message in a run that records no
   trace, where it is never read. *)
let untraced_payload = Trace.info ""

(* The payload a trace records for [msg], built once per send or
   broadcast and only when the run records a trace. *)
let trace_payload eng msg =
  if Trace.enabled eng.trace then eng.protocol.msg_payload msg
  else untraced_payload

let eng_send eng p ~dst msg payload =
  eng.sent <- eng.sent + 1;
  Registry.inc_handle eng.h_sent ~proc:p;
  let t = now eng in
  eng.net_env.Network.now <- t;
  let sc = eng.scenario in
  let copies =
    sc.Scenario.network.Network.decide_into eng.net_rng eng.net_env
      eng.net_delays ~src:p ~dst
  in
  if copies = 0 then begin
    eng.dropped <- eng.dropped + 1;
    Registry.inc_handle eng.h_dropped ~proc:dst;
    (* A dropped message only needs an id for its trace record. *)
    if Trace.enabled eng.trace then begin
      let id = eng.next_msg_id in
      eng.next_msg_id <- id + 1;
      Trace.record_drop eng.trace ~t ~id ~src:p ~dst payload
    end
  end
  else begin
    let id = eng.next_msg_id in
    eng.next_msg_id <- id + 1;
    let sent =
      if Trace.enabled eng.trace then begin
        let sent = Trace.total_recorded eng.trace in
        Trace.record_send eng.trace ~t ~id ~src:p ~dst payload;
        sent
      end
      else -1
    in
    let slot = arena_alloc eng msg ~id ~refs:copies ~sent in
    let delays = eng.net_delays.Network.delays in
    for i = 0 to copies - 1 do
      schedule_packed eng
        ~key:(key_of_event_time (t +. delays.(i)))
        ~kind:kind_deliver ~f1:p ~f2:dst ~f3:slot
    done
  end

let eng_set_timer eng p ~local_delay ~tag =
  if local_delay < 0. then invalid_arg "Engine.set_timer: negative delay";
  let t = now eng in
  let fire_at = t +. Clock.global_duration eng.clocks.(p) local_delay in
  if Trace.enabled eng.trace then
    Trace.record_timer_set eng.trace ~t ~proc:p ~tag ~fire_at;
  schedule_packed eng ~key:(key_of_event_time fire_at) ~kind:kind_timer ~f1:p
    ~f2:eng.incarnations.(p) ~f3:tag

(* Counter maintenance: call [mark_up]/[mark_down] after/before every
   [None <-> Some] transition of [states.(p)]. *)
let mark_up eng p =
  eng.up_count <- eng.up_count + 1;
  if eng.decision_values.(p) = None then
    eng.undecided_up_count <- eng.undecided_up_count + 1

let mark_down eng p =
  eng.up_count <- eng.up_count - 1;
  if eng.decision_values.(p) = None then
    eng.undecided_up_count <- eng.undecided_up_count - 1

let eng_decide eng p v =
  match eng.decision_values.(p) with
  | Some _ -> ()
  | None ->
      if eng.states.(p) <> None then
        eng.undecided_up_count <- eng.undecided_up_count - 1;
      eng.decision_values.(p) <- Some v;
      eng.decision_times.(p) <- Some (now eng);
      Registry.inc eng.metrics ~proc:p "decisions";
      Registry.observe eng.metrics "decision_latency_delta"
        (Sim_time.diff (now eng) eng.scenario.Scenario.ts
        /. eng.scenario.Scenario.delta);
      Trace.record_decide eng.trace ~t:(now eng) ~proc:p ~value:v;
      (* Flag (but do not abort on) an agreement violation so that tests
         can surface a safety bug with the full trace in hand. *)
      if eng.agreement_violation = None then
        Array.iteri
          (fun q vq ->
            match vq with
            | Some vq when vq <> v && eng.agreement_violation = None ->
                eng.agreement_violation <- Some (p, v, q, vq)
            | _ -> ())
          eng.decision_values

let make_ctx eng p : _ ctx =
  let n = eng.scenario.Scenario.n in
  {
    Runtime.self = p;
    n;
    proposal = eng.scenario.Scenario.proposals.(p);
    local_time = (fun () -> Clock.local_of_global eng.clocks.(p) (now eng));
    send = (fun ~dst msg -> eng_send eng p ~dst msg (trace_payload eng msg));
    broadcast =
      (fun msg ->
        let payload = trace_payload eng msg in
        for dst = 0 to n - 1 do
          eng_send eng p ~dst msg payload
        done);
    set_timer =
      (fun ~local_delay ~tag -> eng_set_timer eng p ~local_delay ~tag);
    persist = (fun st -> Stable_storage.save eng.storage ~proc:p st);
    decide = (fun v -> eng_decide eng p v);
    has_decided =
      (fun () ->
        match eng.decision_values.(p) with Some _ -> true | None -> false);
    rng = eng.proc_rngs.(p);
    scratch = Scratch.create ();
    note = (fun text -> Trace.record_note eng.trace ~t:(now eng) ~proc:p text);
    count = (fun name -> Registry.inc eng.metrics ~proc:p name);
    oracle_time = (fun () -> now eng);
  }

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

type 'state run_result = {
  scenario : Scenario.t;
  protocol_name : string;
  decision_times : Sim_time.t option array;
  decision_values : int option array;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  end_time : Sim_time.t;
  events_processed : int;
  trace : Trace.t;
  metrics : Registry.t;
  agreement_violation : (int * int * int * int) option;
  final_states : 'state option array;
}

let all_up_decided (eng : (_, _) t) =
  eng.up_count > 0 && eng.undecided_up_count = 0

let should_stop (eng : (_, _) t) =
  eng.scenario.Scenario.stop_on_all_decided
  && eng.pending_faults = 0
  && all_up_decided eng

let dispatch (eng : (_, _) t) ~kind ~f1 ~f2 ~f3 =
  eng.events_processed <- eng.events_processed + 1;
  if kind = kind_deliver then begin
    let src = f1 and dst = f2 and slot = f3 in
    let msg = eng.arena_msgs.(slot) in
    let id = eng.arena_ids.(slot) in
    let traced = Trace.enabled eng.trace in
    let sent = if traced then eng.arena_recs.(slot) else -1 in
    arena_release eng slot;
    match eng.states.(dst) with
    | None ->
        (* Receiver is down: the message is lost on arrival. *)
        eng.dropped <- eng.dropped + 1;
        Registry.inc_handle eng.h_dropped ~proc:dst;
        if traced && not (Trace.drop_as_sent eng.trace ~sent ~key:eng.now_key)
        then
          Trace.record_drop eng.trace ~t:(now eng) ~id ~src ~dst
            (eng.protocol.msg_payload msg)
    | Some st ->
        eng.delivered <- eng.delivered + 1;
        Registry.inc_handle eng.h_delivered ~proc:dst;
        if
          traced
          && not (Trace.deliver_as_sent eng.trace ~sent ~key:eng.now_key)
        then
          Trace.record_deliver eng.trace ~t:(now eng) ~id ~src ~dst
            (eng.protocol.msg_payload msg);
        let st' = eng.protocol.on_message eng.ctxs.(dst) st ~src msg in
        (* lint: allow R5 — same-object means the handler kept its state;
           skipping the store is the point, equal-but-rebuilt states may
           be stored redundantly and that is harmless *)
        if st' != st then eng.states.(dst) <- Some st'
  end
  else if kind = kind_timer then begin
    let proc = f1 and tag = f3 in
    (* A timer set before a crash is void: the incarnation moved on. *)
    if f2 = eng.incarnations.(proc) then
      match eng.states.(proc) with
      | None -> ()
      | Some st ->
          if Trace.enabled eng.trace then
            Trace.record_timer_fire eng.trace ~t:(now eng) ~proc ~tag;
          let st' = eng.protocol.on_timer eng.ctxs.(proc) st ~tag in
          (* lint: allow R5 — store avoidance, as in the deliver arm *)
          if st' != st then eng.states.(proc) <- Some st'
  end
  else begin
    let proc = f1 in
    eng.pending_faults <- eng.pending_faults - 1;
    if f2 = 0 then begin
      (* crash *)
      Trace.record_crash eng.trace ~t:(now eng) ~proc;
      if eng.states.(proc) <> None then mark_down eng proc;
      eng.states.(proc) <- None;
      eng.incarnations.(proc) <- eng.incarnations.(proc) + 1
    end
    else begin
      (* restart *)
      Trace.record_restart eng.trace ~t:(now eng) ~proc;
      eng.incarnations.(proc) <- eng.incarnations.(proc) + 1;
      let persisted = Stable_storage.load eng.storage ~proc in
      let was_up = eng.states.(proc) <> None in
      eng.states.(proc) <-
        Some (eng.protocol.on_restart eng.ctxs.(proc) ~persisted);
      if not was_up then mark_up eng proc
    end
  end

let run ?(injections = []) scenario protocol =
  (match Scenario.validate scenario with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Engine.run: invalid scenario: " ^ msg));
  let n = scenario.Scenario.n in
  let root = Prng.create scenario.Scenario.seed in
  let net_rng = Prng.split root in
  let clock_rng = Prng.split root in
  let proc_rngs = Array.init n (fun _ -> Prng.split root) in
  let clocks =
    Array.init n (fun _ ->
        Clock.random clock_rng ~rho:scenario.Scenario.rho
          ~max_offset:scenario.Scenario.delta)
  in
  let metrics = Registry.create () in
  let eng =
    {
      scenario;
      protocol;
      queue = Packed_queue.create ();
      now_key = key_of_time Sim_time.zero;
      next_seq = 0;
      arena_msgs = [||];
      arena_ids = [||];
      arena_refs = [||];
      arena_recs = [||];
      arena_len = 0;
      free_head = -1;
      net_env =
        Network.make_env ~now:Sim_time.zero ~ts:scenario.Scenario.ts
          ~delta:scenario.Scenario.delta;
      net_delays = Network.make_delays ();
      states = Array.make n None;
      incarnations = Array.make n 0;
      clocks;
      storage = Stable_storage.create ~n;
      net_rng;
      proc_rngs;
      decision_times = Array.make n None;
      decision_values = Array.make n None;
      trace =
        Trace.create
          ~capacity:scenario.Scenario.trace_capacity
          ~enabled:scenario.Scenario.record_trace ();
      metrics;
      h_sent = Registry.handle ~procs:n metrics "msgs_sent";
      h_delivered = Registry.handle ~procs:n metrics "msgs_delivered";
      h_dropped = Registry.handle ~procs:n metrics "msgs_dropped";
      next_msg_id = 0;
      ctxs = [||];
      sent = 0;
      delivered = 0;
      dropped = 0;
      pending_faults = 0;
      events_processed = 0;
      agreement_violation = None;
      up_count = 0;
      undecided_up_count = 0;
    }
  in
  eng.ctxs <- Array.init n (fun p -> make_ctx eng p);
  (* Fault script. *)
  List.iter
    (fun { Fault.at; proc; action } ->
      eng.pending_faults <- eng.pending_faults + 1;
      let act = match action with Fault.Crash -> 0 | Fault.Restart -> 1 in
      schedule_packed eng ~key:(key_of_event_time at) ~kind:kind_fault
        ~f1:proc ~f2:act ~f3:0)
    (Fault.sorted_events scenario.Scenario.faults);
  Registry.inc eng.metrics "runs";
  (* Injected in-flight messages (obsolete pre-TS traffic): no recorded
     origin, so they carry [Trace.no_origin] as their message id. *)
  List.iter
    (fun (at, src, dst, msg) ->
      let slot = arena_alloc eng msg ~id:Trace.no_origin ~refs:1 ~sent:(-1) in
      schedule_packed eng ~key:(key_of_event_time at) ~kind:kind_deliver
        ~f1:src ~f2:dst ~f3:slot)
    injections;
  (* Boot initially-up processes. *)
  for p = 0 to n - 1 do
    if not (List.mem p scenario.Scenario.faults.Fault.initially_down) then begin
      eng.states.(p) <- Some (protocol.on_boot eng.ctxs.(p));
      mark_up eng p
    end
  done;
  (* Main loop: five int loads, an in-place heap pop, dispatch. *)
  let horizon_key = key_of_event_time scenario.Scenario.horizon in
  let q = eng.queue in
  let rec loop () =
    if (not (should_stop eng)) && Packed_queue.length q > 0 then begin
      let key = Packed_queue.min_key q in
      if key <= horizon_key then begin
        let ord = Packed_queue.min_ord q in
        let f1 = Packed_queue.min_f1 q in
        let f2 = Packed_queue.min_f2 q in
        let f3 = Packed_queue.min_f3 q in
        Packed_queue.drop_min q;
        if key > eng.now_key then eng.now_key <- key;
        dispatch eng ~kind:(ord land kind_mask) ~f1 ~f2 ~f3;
        loop ()
      end
    end
  in
  loop ();
  {
    scenario;
    protocol_name = protocol.name;
    decision_times = Array.copy eng.decision_times;
    decision_values = Array.copy eng.decision_values;
    messages_sent = eng.sent;
    messages_delivered = eng.delivered;
    messages_dropped = eng.dropped;
    end_time = now eng;
    events_processed = eng.events_processed;
    trace = eng.trace;
    metrics = eng.metrics;
    agreement_violation = eng.agreement_violation;
    final_states = Array.copy eng.states;
  }

(* ------------------------------------------------------------------ *)
(* Result helpers                                                      *)
(* ------------------------------------------------------------------ *)

let decisions r =
  let acc = ref [] in
  for p = Array.length r.decision_values - 1 downto 0 do
    match (r.decision_values.(p), r.decision_times.(p)) with
    | Some v, Some t -> acc := (p, t, v) :: !acc
    | _ -> ()
  done;
  !acc

let default_procs r =
  List.init (Array.length r.decision_values) (fun i -> i)

let all_decided ?procs r =
  let procs = match procs with Some ps -> ps | None -> default_procs r in
  procs <> []
  && List.for_all (fun p -> r.decision_values.(p) <> None) procs
  && r.agreement_violation = None
