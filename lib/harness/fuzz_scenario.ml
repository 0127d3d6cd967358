type protocol = Protocols.protocol =
  | Modified_paxos
  | Ungated_paxos
  | Traditional_paxos
  | Rotating_coordinator
  | B_consensus

type injection = { at : float; src : int; dst : int; session : int }

type t = {
  name : string;
  protocol : protocol;
  n : int;
  ts : float;
  delta : float;
  rho : float;
  seed : int64;
  horizon : float;
  network : Sim.Network_spec.t;
  faults : Sim.Fault.t;
  proposals : int array;
  injections : injection list;
}

let to_scenario ?(record_trace = true) t =
  Sim.Scenario.make ~name:t.name ~n:t.n ~ts:t.ts ~delta:t.delta ~rho:t.rho
    ~seed:t.seed ~horizon:t.horizon
    ~network:(Sim.Network_spec.compile t.network)
    ~faults:t.faults ~proposals:t.proposals ~record_trace ()

let validate t =
  match Sim.Scenario.validate (to_scenario t) with
  | Error _ as e -> e
  | Ok () -> (
      match Sim.Network_spec.validate t.network with
      | Error _ as e -> e
      | Ok () ->
          if
            t.injections <> []
            && not (Protocols.entry t.protocol).takes_injections
          then
            Error
              (Printf.sprintf "%s takes no injections"
                 (Protocols.name t.protocol))
          else (
            match
              List.find_opt
                (fun { at; src; dst; session } ->
                  at < 0. || session < 0 || src < 0 || src >= t.n || dst < 0
                  || dst >= t.n)
                t.injections
            with
            | Some { src; dst; session; _ } ->
                Error
                  (Printf.sprintf
                     "injection out of range (src=%d dst=%d session=%d, n=%d)"
                     src dst session t.n)
            | None -> Ok ()))

let size t =
  List.length t.injections
  + List.length t.faults.Sim.Fault.events
  + List.length t.faults.Sim.Fault.initially_down
  + Sim.Network_spec.complexity t.network
  + if t.rho > 0. then 1 else 0

let equal_injection a b =
  Float.equal a.at b.at && Int.equal a.src b.src && Int.equal a.dst b.dst
  && Int.equal a.session b.session

let equal_fault_event (a : Sim.Fault.event) (b : Sim.Fault.event) =
  Float.equal a.Sim.Fault.at b.Sim.Fault.at
  && Int.equal a.proc b.proc
  && (match (a.action, b.action) with
     | Sim.Fault.Crash, Sim.Fault.Crash | Sim.Fault.Restart, Sim.Fault.Restart
       ->
         true
     | _ -> false)

let equal a b =
  String.equal a.name b.name
  && a.protocol = b.protocol
  && Int.equal a.n b.n && Float.equal a.ts b.ts
  && Float.equal a.delta b.delta
  && Float.equal a.rho b.rho
  && Int64.equal a.seed b.seed
  && Float.equal a.horizon b.horizon
  && Sim.Network_spec.equal a.network b.network
  && List.equal Int.equal a.faults.Sim.Fault.initially_down
       b.faults.Sim.Fault.initially_down
  && List.equal equal_fault_event a.faults.Sim.Fault.events
       b.faults.Sim.Fault.events
  && Array.length a.proposals = Array.length b.proposals
  && Array.for_all2 Int.equal a.proposals b.proposals
  && List.equal equal_injection a.injections b.injections

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let fault_event_to_json { Sim.Fault.at; proc; action } =
  Sim.Json.Obj
    [
      ("at", Sim.Json.float at);
      ("proc", Sim.Json.int proc);
      ( "action",
        Sim.Json.Str
          (match action with
          | Sim.Fault.Crash -> "crash"
          | Sim.Fault.Restart -> "restart") );
    ]

let injection_to_json { at; src; dst; session } =
  Sim.Json.Obj
    [
      ("at", Sim.Json.float at);
      ("src", Sim.Json.int src);
      ("dst", Sim.Json.int dst);
      ("session", Sim.Json.int session);
    ]

let to_json t =
  Sim.Json.Obj
    [
      ("name", Sim.Json.Str t.name);
      ("protocol", Sim.Json.Str (Protocols.name t.protocol));
      ("n", Sim.Json.int t.n);
      ("ts", Sim.Json.float t.ts);
      ("delta", Sim.Json.float t.delta);
      ("rho", Sim.Json.float t.rho);
      ("seed", Sim.Json.int64 t.seed);
      ("horizon", Sim.Json.float t.horizon);
      ("network", Sim.Network_spec.to_json t.network);
      ( "initially_down",
        Sim.Json.Arr
          (List.map Sim.Json.int t.faults.Sim.Fault.initially_down) );
      ( "fault_events",
        Sim.Json.Arr
          (List.map fault_event_to_json t.faults.Sim.Fault.events) );
      ( "proposals",
        Sim.Json.Arr (List.map Sim.Json.int (Array.to_list t.proposals)) );
      ("injections", Sim.Json.Arr (List.map injection_to_json t.injections));
    ]

let ( let* ) = Result.bind

let int_list_of_json j =
  let* items = Sim.Json.to_list j in
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* i = Sim.Json.to_int x in
      Ok (i :: acc))
    (Ok []) items
  |> Result.map List.rev

let fault_event_of_json j =
  let* at = Result.bind (Sim.Json.member "at" j) Sim.Json.to_float in
  let* proc = Result.bind (Sim.Json.member "proc" j) Sim.Json.to_int in
  let* action = Result.bind (Sim.Json.member "action" j) Sim.Json.to_string in
  let* action =
    match action with
    | "crash" -> Ok Sim.Fault.Crash
    | "restart" -> Ok Sim.Fault.Restart
    | a -> Error (Printf.sprintf "unknown fault action %S" a)
  in
  Ok { Sim.Fault.at; proc; action }

let injection_of_json j =
  let* at = Result.bind (Sim.Json.member "at" j) Sim.Json.to_float in
  let* src = Result.bind (Sim.Json.member "src" j) Sim.Json.to_int in
  let* dst = Result.bind (Sim.Json.member "dst" j) Sim.Json.to_int in
  let* session = Result.bind (Sim.Json.member "session" j) Sim.Json.to_int in
  Ok { at; src; dst; session }

let list_of_json f j =
  let* items = Sim.Json.to_list j in
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    (Ok []) items
  |> Result.map List.rev

let of_json j =
  let* name = Result.bind (Sim.Json.member "name" j) Sim.Json.to_string in
  let* protocol =
    Result.bind (Sim.Json.member "protocol" j) Sim.Json.to_string
  in
  let* protocol =
    match Protocols.of_name protocol with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  in
  let* n = Result.bind (Sim.Json.member "n" j) Sim.Json.to_int in
  let* ts = Result.bind (Sim.Json.member "ts" j) Sim.Json.to_float in
  let* delta = Result.bind (Sim.Json.member "delta" j) Sim.Json.to_float in
  let* rho = Result.bind (Sim.Json.member "rho" j) Sim.Json.to_float in
  let* seed = Result.bind (Sim.Json.member "seed" j) Sim.Json.to_int64 in
  let* horizon = Result.bind (Sim.Json.member "horizon" j) Sim.Json.to_float in
  let* network =
    Result.bind (Sim.Json.member "network" j) Sim.Network_spec.of_json
  in
  let* initially_down =
    Result.bind (Sim.Json.member "initially_down" j) int_list_of_json
  in
  let* events =
    Result.bind (Sim.Json.member "fault_events" j)
      (list_of_json fault_event_of_json)
  in
  let* proposals =
    Result.bind (Sim.Json.member "proposals" j) int_list_of_json
  in
  let* injections =
    Result.bind (Sim.Json.member "injections" j)
      (list_of_json injection_of_json)
  in
  Ok
    {
      name;
      protocol;
      n;
      ts;
      delta;
      rho;
      seed;
      horizon;
      network;
      faults = Sim.Fault.make ~initially_down events;
      proposals = Array.of_list proposals;
      injections;
    }

let pp fmt t =
  Format.fprintf fmt
    "%s[%s n=%d ts=%g delta=%g rho=%g seed=%Ld net=%s down=%d faults=%d \
     inj=%d]"
    t.name (Protocols.name t.protocol) t.n t.ts t.delta t.rho t.seed
    (Sim.Network_spec.name t.network)
    (List.length t.faults.Sim.Fault.initially_down)
    (List.length t.faults.Sim.Fault.events)
    (List.length t.injections)
