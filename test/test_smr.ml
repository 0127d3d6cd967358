(* State machine replication over the modified Paxos algorithm. *)

let delta = 0.01

let ts = 0.5

(* --- Command ------------------------------------------------------------ *)

let test_command_apply () =
  Alcotest.(check int) "set" 7
    (Smr.Command.apply 3 (Smr.Command.make ~id:0 (Smr.Command.Set 7)));
  Alcotest.(check int) "add" 5
    (Smr.Command.apply 3 (Smr.Command.make ~id:1 (Smr.Command.Add 2)));
  Alcotest.(check int) "noop" 3 (Smr.Command.apply 3 Smr.Command.noop);
  Alcotest.(check bool) "noop detection" true
    (Smr.Command.is_noop Smr.Command.noop)

let test_command_checksum_order_sensitive () =
  let a = Smr.Command.make ~id:0 (Smr.Command.Add 1) in
  let b = Smr.Command.make ~id:1 (Smr.Command.Add 2) in
  Alcotest.(check bool) "order matters" true
    (Smr.Command.checksum [ a; b ] <> Smr.Command.checksum [ b; a ]);
  Alcotest.(check bool) "deterministic" true
    (Smr.Command.checksum [ a; b ] = Smr.Command.checksum [ a; b ])

let test_command_validation () =
  Alcotest.(check bool) "negative id rejected" true
    (try
       ignore (Smr.Command.make ~id:(-2) Smr.Command.Noop);
       false
     with Invalid_argument _ -> true)

(* --- Workload helpers ----------------------------------------------------- *)

let spread_workload ~n ~per_proc ~start ~gap =
  Array.init n (fun p ->
      List.init per_proc (fun k ->
          let id = (p * per_proc) + k in
          ( start +. (gap *. float_of_int k) +. (0.001 *. float_of_int p),
            Smr.Command.make ~id (Smr.Command.Add (id + 1)) )))

let expected_sum ~n ~per_proc =
  let total = n * per_proc in
  total * (total + 1) / 2

let run ?(n = 5) ?(seed = 3L) ?(network = Sim.Network.eventually_synchronous ())
    ?(faults = Sim.Fault.none) ~workloads () =
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-test" ~n ~ts ~delta ~seed ~network ~faults
      ~horizon:(ts +. (500. *. delta))
      ()
  in
  Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads)

(* --- End-to-end ----------------------------------------------------------- *)

let test_all_replicas_converge () =
  let n = 5 and per_proc = 2 in
  let workloads = spread_workload ~n ~per_proc ~start:0.1 ~gap:0.1 in
  let r = run ~n ~workloads () in
  Alcotest.(check bool) "all decided (log checksums agree)" true
    (Sim.Engine.all_decided r);
  Array.iter
    (function
      | Some st ->
          Alcotest.(check int) "register value" (expected_sum ~n ~per_proc)
            (Smr.Multi_paxos.register st);
          Alcotest.(check int) "all commands applied" (n * per_proc)
            (List.length (Smr.Multi_paxos.applied st))
      | None -> Alcotest.fail "replica down")
    r.Sim.Engine.final_states

let test_logs_identical () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:3 ~start:0.05 ~gap:0.07 in
  let r = run ~n ~workloads () in
  let logs =
    Array.to_list r.Sim.Engine.final_states
    |> List.filter_map (Option.map Smr.Multi_paxos.applied)
  in
  match logs with
  | [] -> Alcotest.fail "no replicas"
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check bool) "same applied sequence" true
            (List.equal Smr.Command.equal first l))
        rest

let test_duplicate_submission_executes_once () =
  (* The same command id handed to two different processes: the state
     machine must apply it once. *)
  let n = 5 in
  let cmd at = (at, Smr.Command.make ~id:0 (Smr.Command.Add 100)) in
  let workloads =
    Array.init n (fun p ->
        if p = 1 then [ cmd 0.1 ] else if p = 2 then [ cmd 0.12 ] else [])
  in
  (* duplicate ids across the workload are rejected by the constructor;
     simulate a client retry by going through two processes with
     distinct ids instead, then checking idempotence of re-proposal via
     a leader change window. *)
  Alcotest.(check bool) "duplicate ids rejected up-front" true
    (try
       ignore (run ~n ~workloads ());
       false
     with Invalid_argument _ -> true)

let test_survives_minority_crash () =
  let n = 5 in
  let workloads = spread_workload ~n:3 ~per_proc:2 ~start:0.1 ~gap:0.1 in
  (* only processes 0-2 submit; 3 and 4 die before TS *)
  let workloads = Array.append workloads [| []; [] |] in
  let faults =
    Sim.Fault.make
      [ Sim.Fault.crash ~at:0.2 3; Sim.Fault.crash ~at:0.25 4 ]
  in
  let r = run ~n ~faults ~workloads () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d caught up" p)
        true
        (r.Sim.Engine.decision_values.(p) <> None))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None)

let test_restarted_replica_catches_up () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:2 ~start:0.1 ~gap:0.05 in
  let faults =
    Sim.Fault.crash_then_restart ~crash_at:0.2
      ~restart_at:(ts +. (50. *. delta))
      2
  in
  let r = run ~n ~faults ~workloads () in
  Alcotest.(check bool) "restarted replica converges" true
    (r.Sim.Engine.decision_values.(2) <> None);
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None);
  match r.Sim.Engine.final_states.(2) with
  | Some st ->
      Alcotest.(check int) "register caught up"
        (expected_sum ~n ~per_proc:2)
        (Smr.Multi_paxos.register st)
  | None -> Alcotest.fail "replica down at end"

let test_stable_case_fast_commit () =
  (* Stable from time 0: commits within ~3 one-way delays each. *)
  let n = 5 in
  let workloads =
    Array.init n (fun p ->
        if p <> 1 then []
        else
          List.init 5 (fun k ->
              ( 0.3 +. (10. *. delta *. float_of_int k),
                Smr.Command.make ~id:k (Smr.Command.Add 1) )))
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-stable" ~n ~ts:0. ~delta ~seed:3L
      ~network:Sim.Network.deterministic_after_ts ~record_trace:true
      ~horizon:2.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  let submits = Hashtbl.create 8 and chosens = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Sim.Trace.Note { t; text; _ } -> (
          match String.split_on_char ':' text with
          | [ "submit"; id ] -> Hashtbl.replace submits (int_of_string id) t
          | [ "chosen"; id ] ->
              let id = int_of_string id in
              if not (Hashtbl.mem chosens id) then Hashtbl.add chosens id t
          | _ -> ())
      | _ -> ())
    (Sim.Trace.entries r.Sim.Engine.trace);
  Alcotest.(check int) "all submitted" 5 (Hashtbl.length submits);
  Hashtbl.iter
    (fun id t0 ->
      match Hashtbl.find_opt chosens id with
      | None -> Alcotest.fail (Printf.sprintf "cmd%d never chosen" id)
      | Some t1 ->
          (* 3 one-way delays once leadership is settled; allow the first
             commands the cost of establishing it *)
          Alcotest.(check bool)
            (Printf.sprintf "cmd%d commit latency %.1f delta" id
               ((t1 -. t0) /. delta))
            true
            ((t1 -. t0) /. delta <= 6.))
    submits;
  (* steady state: the last command commits within 3 hops *)
  let lat id = Hashtbl.find chosens id -. Hashtbl.find submits id in
  Alcotest.(check bool) "steady-state commit within 3 delta" true
    (lat 4 /. delta <= 3.0 +. 1e-6)

let test_sessions_quiesce_when_idle () =
  (* With the progress gate, an idle stable cluster stops changing
     sessions. *)
  let n = 5 in
  let workloads =
    Array.init n (fun p ->
        if p = 0 then [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 1)) ]
        else [])
  in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-idle" ~n ~ts:0. ~delta ~seed:3L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:3.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  Array.iter
    (function
      | Some st ->
          (* 3 seconds = ~66 session timeouts; without the gate sessions
             would be in the dozens *)
          Alcotest.(check bool) "sessions stay low" true
            (Smr.Multi_paxos.session_number st <= 3)
      | None -> Alcotest.fail "replica down")
    r.Sim.Engine.final_states

let test_leader_crash_mid_commit () =
  (* Crash whoever leads while commands are in flight: orphaned
     proposals must go back to pending, reach the next leader, and
     execute exactly once.  We crash a different process in each run so
     that whichever process happens to lead, some run kills it. *)
  let n = 5 in
  List.iter
    (fun victim ->
      let workloads = spread_workload ~n ~per_proc:1 ~start:(ts /. 4.) ~gap:0.01 in
      let faults =
        Sim.Fault.crash_then_restart
          ~crash_at:(ts /. 2.)
          ~restart_at:(ts +. (40. *. delta))
          victim
      in
      let r = run ~n ~faults ~network:Sim.Network.silent_until_ts ~workloads () in
      Alcotest.(check bool)
        (Printf.sprintf "no divergence (victim %d)" victim)
        true
        (r.Sim.Engine.agreement_violation = None);
      Array.iteri
        (fun p st ->
          match st with
          | Some st ->
              Alcotest.(check int)
                (Printf.sprintf "p%d register (victim %d)" p victim)
                (expected_sum ~n ~per_proc:1)
                (Smr.Multi_paxos.register st)
          | None -> Alcotest.fail "replica down at end")
        r.Sim.Engine.final_states)
    [ 0; 2; 4 ]

let test_ungated_sessions_churn_but_converge () =
  let n = 5 in
  let workloads = spread_workload ~n ~per_proc:1 ~start:0.05 ~gap:0.05 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-ungated" ~n ~ts:0. ~delta ~seed:5L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:2.0 ()
  in
  let r =
    Sim.Engine.run sc
      (Smr.Multi_paxos.protocol ~progress_gate:false cfg ~workloads)
  in
  Alcotest.(check bool) "still converges" true
    (Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values);
  Alcotest.(check bool) "no divergence" true
    (r.Sim.Engine.agreement_violation = None);
  match r.Sim.Engine.final_states.(0) with
  | Some st ->
      Alcotest.(check bool) "sessions churned" true
        (Smr.Multi_paxos.session_number st > 10)
  | None -> Alcotest.fail "down"

let test_workload_validation () =
  let cfg = Dgl.Config.make ~n:3 ~delta () in
  let dup =
    [|
      [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 1)) ];
      [ (0.1, Smr.Command.make ~id:0 (Smr.Command.Add 2)) ];
      [];
    |]
  in
  Alcotest.(check bool) "duplicate ids rejected" true
    (try
       ignore (Smr.Multi_paxos.protocol cfg ~workloads:dup);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (Smr.Multi_paxos.protocol cfg ~workloads:[| [] |]);
       false
     with Invalid_argument _ -> true)

let test_empty_workload_quiet () =
  let n = 3 in
  let workloads = Array.make n [] in
  let cfg = Dgl.Config.make ~n ~delta () in
  let sc =
    Sim.Scenario.make ~name:"smr-empty" ~n ~ts:0. ~delta ~seed:1L
      ~network:Sim.Network.always_synchronous ~stop_on_all_decided:false
      ~horizon:1.0 ()
  in
  let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
  Array.iter
    (function
      | Some st ->
          Alcotest.(check int) "nothing chosen" 0 (Smr.Multi_paxos.chosen_upto st)
      | None -> Alcotest.fail "down")
    r.Sim.Engine.final_states

(* Property: under random workloads, networks and crash/restart churn
   of up to two members, every replica applies the same command
   sequence and reaches the same register value. *)
let prop_logs_converge =
  let gen =
    QCheck.Gen.(
      let* seed = map Int64.of_int (int_range 1 1_000_000) in
      let* n_cmds = int_range 1 8 in
      let* submitters = list_repeat n_cmds (int_range 0 4) in
      let* ops =
        list_repeat n_cmds
          (oneof [ map (fun v -> Smr.Command.Set v) (int_bound 100);
                   map (fun d -> Smr.Command.Add d) (int_bound 20) ])
      in
      let* net = int_bound 1 in
      (* up to two members crash between 0.05 and 0.4 s and restart 0.05
         to 0.5 s later, so a restart may come before or after TS *)
      let* churn =
        list_size (int_bound 2)
          (triple (int_bound 4) (float_range 0.05 0.4) (float_range 0.05 0.5))
      in
      let churn =
        List.sort_uniq (fun (p, _, _) (q, _, _) -> Int.compare p q) churn
      in
      return (seed, submitters, ops, net, churn))
  in
  let print (seed, submitters, _, net, churn) =
    Printf.sprintf "{seed=%Ld; submitters=%s; net=%d; churn=%s}" seed
      (String.concat "," (List.map string_of_int submitters))
      net
      (String.concat ","
         (List.map
            (fun (p, t, down) -> Printf.sprintf "p%d@%.2f+%.2f" p t down)
            churn))
  in
  QCheck.Test.make ~name:"smr: replica logs converge" ~count:40
    (QCheck.make ~print gen)
    (fun (seed, submitters, ops, net, churn) ->
      let n = 5 in
      let cmds = List.combine submitters ops in
      (* assign globally unique ids in submission order *)
      let counter = ref 0 in
      let workloads =
        Array.init n (fun p ->
            List.filter_map
              (fun (q, op) ->
                if q <> p then None
                else begin
                  let id = !counter in
                  incr counter;
                  Some
                    ( 0.05 +. (0.03 *. float_of_int id),
                      Smr.Command.make ~id op )
                end)
              cmds)
      in
      let network =
        if net = 0 then Sim.Network.eventually_synchronous ()
        else Sim.Network.silent_until_ts
      in
      let faults =
        List.fold_left
          (fun f (p, t, down) ->
            Sim.Fault.union f
              (Sim.Fault.crash_then_restart ~crash_at:t
                 ~restart_at:(t +. down) p))
          Sim.Fault.none churn
      in
      let cfg = Dgl.Config.make ~n ~delta () in
      let sc =
        Sim.Scenario.make ~name:"smr-prop" ~n ~ts ~delta ~seed ~network
          ~faults
          ~horizon:(ts +. (500. *. delta))
          ()
      in
      let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
      (* all replicas decided the same checksum, and applied everything *)
      (match r.Sim.Engine.agreement_violation with
      | Some _ -> QCheck.Test.fail_report "log checksums diverged"
      | None -> ());
      Array.for_all (fun v -> v <> None) r.Sim.Engine.decision_values
      ||
      QCheck.Test.fail_report "a replica failed to converge by the horizon")

(* --- Kv_state against a reference model -------------------------------- *)

module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* The model is the bindings plus the reply of every executed id: a
   decree runs each of its commands whose id is new and replays the
   recorded reply for one already executed; [id < 0] noops do nothing. *)
let model_exec store (op : Smr.Command.op) =
  match op with
  | Smr.Command.Kv_get k -> (
      ( store,
        match Smap.find_opt k store with
        | Some v -> Smr.Kv_state.Found v
        | None -> Smr.Kv_state.Absent ))
  | Smr.Command.Kv_put { key; value } ->
      (Smap.add key value store, Smr.Kv_state.Stored)
  | Smr.Command.Kv_cas { key; expect; set } ->
      let current = Smap.find_opt key store in
      if Option.equal String.equal current expect then
        (Smap.add key set store, Smr.Kv_state.Cas_ok)
      else (store, Smr.Kv_state.Cas_fail current)
  | Smr.Command.Set _ | Smr.Command.Add _ | Smr.Command.Noop
  | Smr.Command.Batch _ ->
      (store, Smr.Kv_state.Noreply)

let model_apply (store, executed) (cmd : Smr.Command.t) =
  let one (store, executed, out) (c : Smr.Command.t) =
    match Imap.find_opt c.id executed with
    | Some r -> (store, executed, (c.id, r) :: out)
    | None ->
        let store, r = model_exec store c.op in
        (store, Imap.add c.id r executed, (c.id, r) :: out)
  in
  let cmds =
    match cmd.op with
    | Smr.Command.Batch cs -> cs
    | _ when cmd.id < 0 -> []
    | _ -> [ cmd ]
  in
  let store, executed, out = List.fold_left one (store, executed, []) cmds in
  ((store, executed), List.rev out)

let kv_keys = [ "a"; "b"; "c" ]

let prop_kv_state_matches_model =
  let open QCheck.Gen in
  let value = map string_of_int (int_bound 3) in
  let key = oneofl kv_keys in
  let op =
    frequency
      [
        (3, map (fun k -> Smr.Command.Kv_get k) key);
        ( 4,
          map2 (fun key value -> Smr.Command.Kv_put { key; value }) key value
        );
        ( 3,
          map3
            (fun key expect set -> Smr.Command.Kv_cas { key; expect; set })
            key (opt value) value );
        (1, map (fun v -> Smr.Command.Set v) (int_bound 9));
        (1, return Smr.Command.Noop);
      ]
  in
  (* ids drawn from a small pool, so inner ids and whole decrees repeat:
     [fresh_uid]-shaped (seq * 3 + member), the same across three boots
     (seq starting at boot lsl 40, so ids share their low bits), or
     sparse below 2^62 *)
  let pool =
    let* shape = int_bound 2 in
    let* member = int_bound 2 in
    match shape with
    | 0 -> return (Array.init 40 (fun k -> (k * 3) + member))
    | 1 ->
        return
          (Array.init 39 (fun i ->
               ((((i mod 3) lsl 40) + (i / 3)) * 3) + member))
    | _ ->
        array_repeat 12
          (oneof
             [
               map (fun x -> x land ((1 lsl 62) - 1)) int;
               map (fun d -> (1 lsl 62) - 1 - d) (int_bound 4);
             ])
  in
  let gen =
    let* pool = pool in
    let id = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
    let cmd = map2 (fun id op -> Smr.Command.make ~id op) id op in
    let decree =
      frequency
        [
          (4, cmd);
          ( 2,
            map2
              (fun id cs -> Smr.Command.make ~id (Smr.Command.Batch cs))
              id
              (list_size (int_range 1 5) cmd) );
          (1, return Smr.Command.noop);
        ]
    in
    let* decrees = list_size (int_range 1 60) decree in
    (* replay some decrees verbatim, as a second leader would *)
    let* dups = list_size (int_bound 10) (int_bound (List.length decrees)) in
    return
      (List.concat
         (List.mapi
            (fun i d -> if List.mem i dups then [ d; d ] else [ d ])
            decrees))
  in
  let print ds = String.concat "; " (List.map Smr.Command.info ds) in
  QCheck.Test.make ~name:"smr: kv_state matches its reference model"
    ~count:300 (QCheck.make ~print gen) (fun decrees ->
      let kv = Smr.Kv_state.create () in
      let replies_equal =
        List.equal (fun (i, r) (j, q) -> i = j && Smr.Kv_state.reply_equal r q)
      in
      let store, _ =
        List.fold_left
          (fun model d ->
            let model, want = model_apply model d in
            if not (replies_equal (Smr.Kv_state.apply kv d) want) then
              QCheck.Test.fail_reportf "replies differ at %s"
                (Smr.Command.info d);
            if Smr.Kv_state.applied kv <> Imap.cardinal (snd model) then
              QCheck.Test.fail_reportf "applied differs after %s"
                (Smr.Command.info d);
            model)
          (Smap.empty, Imap.empty) decrees
      in
      (* the same bindings put in another order digest the same *)
      let fresh = Smr.Kv_state.create () in
      List.iteri
        (fun i (key, value) ->
          ignore
            (Smr.Kv_state.apply fresh
               (Smr.Command.make ~id:i (Smr.Command.Kv_put { key; value }))))
        (List.rev (Smap.bindings store));
      List.for_all
        (fun k ->
          Option.equal String.equal (Smr.Kv_state.get kv k)
            (Smap.find_opt k store))
        kv_keys
      && Smr.Kv_state.checksum kv = Smr.Kv_state.checksum fresh)

(* --- One member's handlers, driven by hand ------------------------------ *)

(* A context for calling a member's handlers directly, reading [clock]
   as its local time.  It records what the member sends (newest first; a
   broadcast as [dst = -1]) and the names of the counters it bumps. *)
let stub_ctx ?(clock = ref 0.) ~n self =
  let sent = ref [] and counted = ref [] in
  let ctx =
    {
      Sim.Runtime.self;
      n;
      proposal = 0;
      local_time = (fun () -> !clock);
      send = (fun ~dst msg -> sent := (dst, msg) :: !sent);
      broadcast = (fun msg -> sent := (-1, msg) :: !sent);
      set_timer = (fun ~local_delay:_ ~tag:_ -> ());
      persist = (fun _ -> ());
      decide = (fun _ -> ());
      has_decided = (fun () -> false);
      rng = Sim.Prng.create 1L;
      scratch = Sim.Scratch.create ();
      note = (fun _ -> ());
      count = (fun name -> counted := name :: !counted);
      oracle_time = (fun () -> !clock);
    }
  in
  (ctx, sent, counted)

(* [restore] as the socket replica calls it: no workload, no decide
   rule. *)
let restore_bare cfg ctx e =
  Smr.Multi_paxos.restore cfg ~progress_gate:true ~workload:[]
    ~total_commands:0 ctx e

(* A member restored with 50k chosen instances, a hole at the watermark
   and a few chosen instances and votes above it answers a 1a with only
   what lies at or above the watermark: its votes, highest instance
   first, then the chosen instances above the watermark, highest first
   (as infinite-ballot votes). *)
let test_1b_carries_only_above_watermark () =
  let n = 3 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let ctx, sent, _ = stub_ctx ~n 0 in
  let cmd i = Smr.Command.make ~id:i (Smr.Command.Set i) in
  let chosen i = (i, { Smr.Smr_messages.vbal = max_int; vcmd = cmd i }) in
  let vote i vbal = (i, { Smr.Smr_messages.vbal; vcmd = cmd i }) in
  let watermark = 50_000 in
  let mbal = Consensus.Ballot.of_session ~n ~proc:1 4 in
  let st =
    restore_bare cfg ctx
      {
        Smr.Multi_paxos.e_mbal = mbal;
        e_votes =
          List.init watermark chosen
          @ [ vote 50_000 5; chosen 50_001; vote 50_002 7; chosen 50_003 ];
        e_chosen_upto = 0;
      }
  in
  Alcotest.(check int) "restored watermark" watermark
    (Smr.Multi_paxos.chosen_upto st);
  sent := [];
  let proto = Smr.Multi_paxos.protocol cfg ~workloads:(Array.make n []) in
  ignore
    (proto.Sim.Runtime.on_message ctx st ~src:1
       (Smr.Smr_messages.M1a { mbal }));
  match !sent with
  | [ (dst, Smr.Smr_messages.M1b { mbal = b; votes; chosen_upto }) ] ->
      Alcotest.(check int) "sent to the ballot's owner" 1 dst;
      Alcotest.(check int) "at the 1a's ballot" mbal b;
      Alcotest.(check int) "the watermark" watermark chosen_upto;
      Alcotest.(check (list (pair int int)))
        "votes, then chosen instances above the watermark"
        [ (50_002, 7); (50_000, 5); (50_003, max_int); (50_001, max_int) ]
        (List.map
           (fun (i, (v : Smr.Smr_messages.ivote)) ->
             if not (Smr.Command.equal v.vcmd (cmd i)) then
               Alcotest.failf "instance %d carries the wrong command" i;
             (i, v.vbal))
           votes)
  | _ -> Alcotest.fail "expected exactly one 1b in answer to the 1a"

(* A [Chosen] that names another command for an instance the member
   already holds is a split log.  The member keeps what it holds, and
   the conflict shows in the [smr_chosen_conflicts] counter. *)
let test_conflicting_chosen_is_counted () =
  let n = 3 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let ctx, _, counted = stub_ctx ~n 0 in
  let held = Smr.Command.make ~id:1 (Smr.Command.Set 1) in
  let st =
    restore_bare cfg ctx
      {
        Smr.Multi_paxos.e_mbal = Consensus.Ballot.of_session ~n ~proc:1 2;
        e_votes = [ (0, { Smr.Smr_messages.vbal = max_int; vcmd = held }) ];
        e_chosen_upto = 1;
      }
  in
  let proto = Smr.Multi_paxos.protocol cfg ~workloads:(Array.make n []) in
  let chosen st cmd =
    proto.Sim.Runtime.on_message ctx st ~src:1
      (Smr.Smr_messages.Chosen { instance = 0; cmd })
  in
  let st = chosen st held in
  Alcotest.(check (list string)) "the held command again" [] !counted;
  let st = chosen st (Smr.Command.make ~id:2 (Smr.Command.Set 2)) in
  Alcotest.(check (list string))
    "another command" [ "smr_chosen_conflicts" ] !counted;
  Alcotest.(check bool) "the held command stays" true
    (Option.equal Smr.Command.equal (Some held)
       (Smr.Multi_paxos.chosen_at st 0))

(* A member that crashes while it leads comes back through [restore] on
   the essence of its persisted state: right after the restart it holds
   that and nothing else (not leading, no leader bookkeeping), at a
   fresh ballot of its own.  It still decides, which needs its second
   command: that one fell due while it was down, so only the
   re-submission at restart can get it chosen. *)
let test_restart_keeps_only_the_essence () =
  let n = 5 and victim = 4 and crash_at = 0.12 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let workloads = spread_workload ~n ~per_proc:2 ~start:0.1 ~gap:0.05 in
  let proto = Smr.Multi_paxos.protocol cfg ~workloads in
  let restarts = ref [] in
  let proto =
    {
      proto with
      Sim.Runtime.on_restart =
        (fun ctx ~persisted ->
          let st = proto.Sim.Runtime.on_restart ctx ~persisted in
          let now = ctx.Sim.Runtime.local_time () in
          restarts := (now, persisted, st) :: !restarts;
          st);
    }
  in
  let restart_at = crash_at +. (10. *. delta) in
  let sc =
    Sim.Scenario.make ~name:"smr-restart" ~n ~ts:0. ~delta ~seed:3L
      ~network:Sim.Network.deterministic_after_ts
      ~faults:(Sim.Fault.crash_then_restart ~crash_at ~restart_at victim)
      ~horizon:3.0 ()
  in
  let r = Sim.Engine.run sc proto in
  (match !restarts with
  | [ (now, Some persisted, st) ] ->
      Alcotest.(check bool) "led when it crashed" true
        (Smr.Multi_paxos.leading persisted);
      Alcotest.(check bool) "not leading after the restart" false
        (Smr.Multi_paxos.leading st);
      Alcotest.(check bool) "a fresh ballot" true
        (Smr.Multi_paxos.mbal st > Smr.Multi_paxos.mbal persisted);
      let ctx, _, _ = stub_ctx ~clock:(ref now) ~n victim in
      let fresh =
        Smr.Multi_paxos.restore cfg ~progress_gate:true
          ~workload:workloads.(victim) ~total_commands:(2 * n) ctx
          (Smr.Multi_paxos.essence persisted)
      in
      Alcotest.(check bool) "the state is a fresh restore of the essence" true
        (st = fresh)
  | _ -> Alcotest.fail "expected one restart from a persisted state");
  match r.Sim.Engine.decision_times.(victim) with
  | Some t ->
      Alcotest.(check bool) "decides after the restart" true (t > restart_at)
  | None -> Alcotest.fail "the restarted member never decided"

(* A leader that crashes with a 2a in flight comes back knowing its
   ballot but not what it proposed there.  Member 2 leads at ballot 2
   and proposes X at instance 0.  Only member 0 votes for it before 2
   crashes; the 2a to member 1 arrives after the restart, and so does
   everything member 0 sends to 2.  Then Y is forwarded to 2.  Were 2
   to lead at ballot 2 again, with a phase 1 answered by 1 and itself,
   it would propose Y at instance 0 in the ballot that already carries
   X, and the late 2a would let 0 and 1 choose X while 2 chooses Y. *)
let test_restarted_leader_never_reuses_its_ballot () =
  let n = 3 and leader = 2 in
  let cfg = Dgl.Config.make ~n ~delta () in
  let proto = Smr.Multi_paxos.protocol cfg ~workloads:(Array.make n []) in
  let clock = ref 0. in
  let members = Array.init n (fun p -> stub_ctx ~clock ~n p) in
  let states =
    Array.map (fun (ctx, _, _) -> proto.Sim.Runtime.on_boot ctx) members
  in
  let queue = Queue.create () and held = ref [] and down = ref false in
  (* run a handler of [p] and put what it sends on the network, a
     broadcast as one copy per member *)
  let run p f =
    let ctx, sent, _ = members.(p) in
    states.(p) <- f ctx states.(p);
    List.iter
      (fun (dst, msg) ->
        if dst >= 0 then Queue.add (p, dst, msg) queue
        else for q = 0 to n - 1 do Queue.add (p, q, msg) queue done)
      (List.rev !sent);
    sent := []
  in
  let deliver (src, dst, msg) =
    if not (!down && dst = leader) then
      run dst (fun ctx st -> proto.Sim.Runtime.on_message ctx st ~src msg)
  in
  (* deliver until the network is empty, holding back what [late] picks *)
  let drain late =
    while not (Queue.is_empty queue) do
      let m = Queue.pop queue in
      if late m then held := m :: !held else deliver m
    done
  in
  let tick p =
    clock := !clock +. 1.;
    run p (fun ctx st ->
        proto.Sim.Runtime.on_timer ctx st ~tag:Dgl.Session.resend_tag)
  in
  let forward ~src id =
    deliver
      ( src,
        leader,
        Smr.Smr_messages.Forward
          { cmd = Smr.Command.make ~id (Smr.Command.Set id) } )
  in
  tick leader;
  drain (fun _ -> false);
  Alcotest.(check bool) "2 leads" true (Smr.Multi_paxos.leading states.(leader));
  forward ~src:0 1;
  drain (function
    | _, dst, Smr.Smr_messages.M2a _ -> dst <> 0
    | _ -> false);
  (* the crash loses the 2a to the leader itself; the one to 1 is late *)
  down := true;
  let persisted = states.(leader) in
  held := List.filter (fun (_, dst, _) -> dst <> leader) !held;
  clock := !clock +. 1.;
  run leader (fun ctx _ ->
      proto.Sim.Runtime.on_restart ctx ~persisted:(Some persisted));
  down := false;
  tick leader;
  let from_0 (src, dst, _) = src = 0 && dst = leader in
  drain from_0;
  forward ~src:1 2;
  drain from_0;
  List.iter deliver (List.rev !held);
  drain (fun _ -> false);
  let at_0 =
    Array.map
      (fun st ->
        Option.map (fun c -> c.Smr.Command.id) (Smr.Multi_paxos.chosen_at st 0))
      states
  in
  Alcotest.(check bool) "instance 0 is chosen" true (at_0.(0) <> None);
  Alcotest.(check (array (option int)))
    "one command at instance 0" (Array.make n at_0.(0)) at_0

let suite =
  [
    Alcotest.test_case "command apply" `Quick test_command_apply;
    Alcotest.test_case "checksum order sensitive" `Quick
      test_command_checksum_order_sensitive;
    Alcotest.test_case "command validation" `Quick test_command_validation;
    Alcotest.test_case "replicas converge" `Quick test_all_replicas_converge;
    Alcotest.test_case "logs identical" `Quick test_logs_identical;
    Alcotest.test_case "duplicate ids rejected" `Quick
      test_duplicate_submission_executes_once;
    Alcotest.test_case "survives minority crash" `Quick
      test_survives_minority_crash;
    Alcotest.test_case "restarted replica catches up" `Quick
      test_restarted_replica_catches_up;
    Alcotest.test_case "stable case: fast commits" `Quick
      test_stable_case_fast_commit;
    Alcotest.test_case "sessions quiesce when idle" `Quick
      test_sessions_quiesce_when_idle;
    Alcotest.test_case "leader crash mid-commit" `Quick
      test_leader_crash_mid_commit;
    Alcotest.test_case "ungated sessions churn but converge" `Quick
      test_ungated_sessions_churn_but_converge;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "empty workload stays quiet" `Quick
      test_empty_workload_quiet;
    Alcotest.test_case "1b carries only what is above the watermark" `Quick
      test_1b_carries_only_above_watermark;
    Alcotest.test_case "a conflicting chosen is counted" `Quick
      test_conflicting_chosen_is_counted;
    Alcotest.test_case "a restart keeps only the essence" `Quick
      test_restart_keeps_only_the_essence;
    Alcotest.test_case "a restarted leader never reuses its ballot" `Quick
      test_restarted_leader_never_reuses_its_ballot;
    QCheck_alcotest.to_alcotest prop_logs_converge;
    QCheck_alcotest.to_alcotest prop_kv_state_matches_model;
  ]
