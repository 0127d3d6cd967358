(* consensus-sim: run one consensus execution or regenerate the paper's
   experiment tables from the command line.

     consensus-sim run --protocol modified-paxos --n 5 --ts 0.5
     consensus-sim run --protocol traditional-paxos --n 9 --network silent
     consensus-sim experiment e1
     consensus-sim experiment all --full
     consensus-sim trace e1 --timeline --export e1.jsonl
     consensus-sim trace --import e1.jsonl
     consensus-sim fuzz --budget 200 --seed 1 --domains 4
     consensus-sim fuzz --protocol ungated-paxos --save-corpus test/corpus
     consensus-sim replay test/corpus/liveness-fuzz-1-17.json
     consensus-sim serve --id 0 --cluster 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
     consensus-sim client --cluster ... set k1 v1
     consensus-sim client --cluster ... --load --commands 100000 --pipeline 64
     consensus-sim client --check-recovery trace.jsonl --after 1723000000.0
     consensus-sim list

   The linter is its own program, consensus-lint.

   Exit codes: 0 success; 1 domain failure (trace-invariant violation,
   fuzz campaign found violations, corpus replay did not reproduce,
   client load completed short, recovery bound violated);
   3 serve/client environment failure (cannot bind the listener, no
   cluster member reachable); 123..125 are cmdliner's usage/internal
   errors. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)
(* ------------------------------------------------------------------ *)

(* The single-decree protocols by name, straight from the table;
   `run`, `sweep`, `realtime` and `fuzz` all parse -p with it. *)
let protocols =
  List.map
    (fun (e : Harness.Protocols.entry) -> (e.name, e.protocol))
    Harness.Protocols.table

let protocol_conv = Arg.enum protocols

let proto_doc = "Protocol: " ^ Arg.doc_alts_enum protocols

let networks delta =
  [
    ("lossy", Sim.Network.eventually_synchronous ());
    ("silent", Sim.Network.silent_until_ts);
    ("sync", Sim.Network.always_synchronous);
    ("deterministic", Sim.Network.deterministic_after_ts);
    ( "lossy-light",
      Sim.Network.eventually_synchronous ~pre_loss:0.2
        ~pre_delay_max:(2. *. delta) () );
  ]

(* "p@t" crash/restart specs. *)
let fault_spec_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; t ] -> (
        match (int_of_string_opt p, float_of_string_opt t) with
        | Some p, Some t -> Ok (p, t)
        | _ -> Error (`Msg (Printf.sprintf "bad fault spec %S (want p@t)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad fault spec %S (want p@t)" s))
  in
  let print fmt (p, t) = Format.fprintf fmt "%d@%g" p t in
  Arg.conv (parse, print)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let delta_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "delta" ] ~docv:"SECONDS"
        ~doc:"Post-stabilization message-delivery bound.")

let ts_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "ts" ] ~docv:"SECONDS" ~doc:"Stabilization time TS.")

let rho_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "rho" ] ~docv:"RHO" ~doc:"Clock rate-error bound, 0 <= rho < 1.")

let seed_arg =
  Arg.(
    value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* Parsed by name only: [lossy-light] depends on delta, so the policy is
   looked up in [networks delta] once every argument is known. *)
let network_arg =
  let names = List.map (fun (name, _) -> (name, name)) (networks 0.) in
  Arg.(
    value
    & opt (enum names) "lossy"
    & info [ "network" ]
        ~doc:
          "Pre-TS network behaviour: $(b,lossy) (50% loss, long delays), \
           $(b,lossy-light), $(b,silent), $(b,sync) (stable from the \
           start), or $(b,deterministic) (silent before TS, exactly delta \
           after).")

let proto_arg =
  Arg.(
    value
    & opt protocol_conv Harness.Protocols.Modified_paxos
    & info [ "protocol"; "p" ] ~docv:"P" ~doc:(proto_doc ^ "."))

let crash_arg =
  Arg.(
    value
    & opt_all fault_spec_conv []
    & info [ "crash" ] ~docv:"P@T" ~doc:"Crash process P at time T (repeatable).")

let restart_arg =
  Arg.(
    value
    & opt_all fault_spec_conv []
    & info [ "restart" ] ~docv:"P@T"
        ~doc:"Restart process P at time T (repeatable).")

let down_arg =
  Arg.(
    value
    & opt_all int []
    & info [ "down" ] ~docv:"P" ~doc:"Process P is down from the start.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print the full event trace of the run.")

let sigma_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sigma" ] ~docv:"SECONDS"
        ~doc:"Session-timeout upper bound (modified Paxos; default 5*delta).")

let epsilon_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "epsilon" ] ~docv:"SECONDS"
        ~doc:"Phase-1a resend period (default delta/4).")

let commands_arg =
  Arg.(
    value & opt int 6
    & info [ "commands" ] ~docv:"K"
        ~doc:
          "For -p smr: K commands submitted to process 1, 10*delta apart, \
           starting at TS/2.")

let horizon_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Hard stop for the event loop.")

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_result ~ts ~delta (r : _ Sim.Engine.run_result) ~trace =
  Format.printf "protocol: %s@." r.Sim.Engine.protocol_name;
  Format.printf "scenario: %a@." Sim.Scenario.pp r.scenario;
  if trace then begin
    Format.printf "--- trace ---@.";
    Sim.Trace.pp Format.std_formatter r.trace;
    Format.printf "--- end trace ---@."
  end;
  List.iter
    (fun (p, t, v) ->
      Format.printf "p%d decided %d at %a (%+.1f delta after TS)@." p v
        Sim.Sim_time.pp t
        ((t -. ts) /. delta))
    (Sim.Engine.decisions r);
  Array.iteri
    (fun p v -> if v = None then Format.printf "p%d: no decision@." p)
    r.decision_values;
  Format.printf "messages: sent %d, delivered %d, dropped %d@."
    r.messages_sent r.messages_delivered r.messages_dropped;
  Format.printf "events processed: %d, end time: %a@." r.events_processed
    Sim.Sim_time.pp r.end_time;
  match Harness.Measure.check_safety r with
  | Ok () -> Format.printf "safety: agreement + validity OK@."
  | Error msg -> Format.printf "SAFETY: %s@." msg

let run_cmd_impl proto n delta ts rho seed network crashes restarts down
    trace sigma epsilon horizon commands =
  let faults =
    Sim.Fault.make ~initially_down:down
      (List.map (fun (p, t) -> Sim.Fault.crash ~at:t p) crashes
      @ List.map (fun (p, t) -> Sim.Fault.restart ~at:t p) restarts)
  in
  let network = List.assoc network (networks delta) in
  let sc =
    Sim.Scenario.make ~name:"cli" ~n ~ts ~delta ~rho ~seed ~network ~faults
      ?horizon ~record_trace:trace ()
  in
  (match Sim.Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> failwith ("invalid scenario: " ^ msg));
  match proto with
  | Some p -> (
      match
        (Harness.Protocols.entry p).build ?sigma ?epsilon ~n ~delta ~ts ~rho
          ~faults ()
      with
      | Harness.Protocols.Packed { protocol; _ } ->
          print_result ~ts ~delta (Sim.Engine.run sc protocol) ~trace)
  | None ->
      let cfg = Dgl.Config.make ?sigma ?epsilon ~rho ~n ~delta () in
      let workloads =
        Array.init n (fun p ->
            if p <> 1 mod n then []
            else
              List.init commands (fun k ->
                  ( (ts /. 2.) +. (10. *. delta *. float_of_int k),
                    Smr.Command.make ~id:k (Smr.Command.Add (k + 1)) )))
      in
      let r = Sim.Engine.run sc (Smr.Multi_paxos.protocol cfg ~workloads) in
      Format.printf "protocol: %s@." r.Sim.Engine.protocol_name;
      Format.printf "scenario: %a@." Sim.Scenario.pp r.scenario;
      if trace then Sim.Trace.pp Format.std_formatter r.trace;
      Array.iteri
        (fun p st ->
          match st with
          | Some st ->
              Format.printf
                "replica %d: register=%d, log=%d entries, %d commands \
                 applied, converged=%b@."
                p
                (Smr.Multi_paxos.register st)
                (Smr.Multi_paxos.chosen_upto st)
                (List.length (Smr.Multi_paxos.applied st))
                (r.Sim.Engine.decision_values.(p) <> None)
          | None -> Format.printf "replica %d: down@." p)
        r.final_states;
      (match r.agreement_violation with
      | None -> Format.printf "logs: identical applied sequences@."
      | Some _ -> Format.printf "LOG DIVERGENCE@.")

(* [None] is -p smr, multi-decree state machine replication: a `run`-only
   name outside the single-decree table. *)
let run_proto_arg =
  let choices =
    List.map (fun (name, p) -> (name, Some p)) protocols @ [ ("smr", None) ]
  in
  Arg.(
    value
    & opt (enum choices) (Some Harness.Protocols.Modified_paxos)
    & info [ "protocol"; "p" ] ~docv:"P"
        ~doc:
          (proto_doc
         ^ "; or $(b,smr) (state machine replication; see --commands)."))

let run_term =
  Term.(
    const run_cmd_impl $ run_proto_arg $ n_arg $ delta_arg $ ts_arg $ rho_arg
    $ seed_arg $ network_arg $ crash_arg $ restart_arg $ down_arg $ trace_arg
    $ sigma_arg $ epsilon_arg $ horizon_arg $ commands_arg)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one consensus execution and print the outcome.")
    run_term

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

(* An experiment id, or one of [extra]; case-insensitive like
   [Experiments.by_id], and parsed to lower case. *)
let experiment_id_conv ~extra =
  let ids = Harness.Experiments.ids @ extra in
  let parse s =
    let id = String.lowercase_ascii s in
    if List.mem id ids then Ok id
    else
      Error
        (`Msg
           (Printf.sprintf "unknown experiment %S (try: %s)" s
              (String.concat ", " ids)))
  in
  Arg.conv (parse, Format.pp_print_string)

let experiment_impl id full =
  let speed =
    if full then Harness.Experiments.Full else Harness.Experiments.Quick
  in
  match Harness.Experiments.by_id id with
  | Some f -> Harness.Report.print Format.std_formatter (f ~speed ())
  | None (* "all" *) ->
      Harness.Report.print_all Format.std_formatter
        (Harness.Experiments.all ~speed ())

let experiment_cmd =
  let id_arg =
    Arg.(
      value
      & pos 0 (experiment_id_conv ~extra:[ "all" ]) "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (e1..e11, a1..a4, or all).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Wider sweeps: more sizes and more seeds.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one (or all) of the paper's experiment tables.")
    Term.(const experiment_impl $ id_arg $ full_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_impl proto sizes seeds delta ts network =
  let network_policy = List.assoc network (networks delta) in
  Format.printf "  %-4s | %-10s | %-10s | %s@." "n" "mean(d)" "worst(d)"
    "undecided";
  List.iter
    (fun n ->
      let down = Harness.Adversaries.faulty_minority ~n in
      let faults = Sim.Fault.make ~initially_down:down [] in
      let live = Harness.Measure.procs ~n ~except:down () in
      let lats =
        List.concat
          (List.init seeds (fun i ->
               let seed = Int64.of_int ((i * 7919) + 1) in
               let sc =
                 Sim.Scenario.make ~name:"sweep" ~n ~ts ~delta ~seed
                   ~network:network_policy ~faults ()
               in
               match
                 (Harness.Protocols.entry proto).build ~n ~delta ~ts ~rho:0.
                   ~faults ()
               with
               | Harness.Protocols.Packed { protocol; _ } ->
                   let r = Sim.Engine.run sc protocol in
                   List.map
                     (fun p ->
                       match r.Sim.Engine.decision_times.(p) with
                       | Some t -> (t -. ts) /. delta
                       | None -> Float.infinity)
                     live))
      in
      let finite = List.filter Float.is_finite lats in
      let undecided = List.length lats - List.length finite in
      match finite with
      | [] -> Format.printf "  %-4d | %-10s | %-10s | %d@." n "-" "-" undecided
      | _ ->
          Format.printf "  %-4d | %-10.2f | %-10.1f | %d@." n
            (Sim.Metrics.mean finite)
            (List.fold_left Float.max 0. finite)
            undecided)
    sizes

let sweep_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 3; 5; 9; 17 ]
      & info [ "sizes" ] ~docv:"N,N,..." ~doc:"Cluster sizes to sweep.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"K" ~doc:"Seeds per size.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep cluster sizes for one protocol (faulty minority down, \
          latency after TS in delta units).")
    Term.(
      const sweep_impl $ proto_arg $ sizes_arg $ seeds_arg $ delta_arg
      $ ts_arg $ network_arg)

(* ------------------------------------------------------------------ *)
(* check (bounded model checking)                                      *)
(* ------------------------------------------------------------------ *)

let check_impl model gate max_session depth max_states domains exact_keys =
  (* lint: allow R1 — elapsed-time display for the operator, not part
     of any simulated run *)
  let t0 = Unix.gettimeofday () in
  let domains =
    match domains with
    | Some d -> d
    | None -> Harness.Measure.domain_count ()
  in
  let registry = Sim.Registry.create () in
  (* Everything on stdout is identical at any --domains (the merge rule
     in {!Mcheck.Explore}); wall-clock and pool size go to stderr so
     stdout can be diffed across domain counts. *)
  let footer collisions =
    (match collisions with
    | Some c ->
        Format.printf "exact-keys: %d fingerprint collision%s@." c
          (if c = 1 then "" else "s")
    | None -> ());
    Format.printf "frontier: %d levels, %d states@."
      (Sim.Registry.counter_total registry "mcheck_frontier_levels")
      (Sim.Registry.counter_total registry "mcheck_frontier_states");
    (* lint: allow R1 — elapsed-time display for the operator *)
    let elapsed = Unix.gettimeofday () -. t0 in
    Format.eprintf "(%d domain%s, %.1fs)@." domains
      (if domains = 1 then "" else "s")
      elapsed
  in
  match model with
  | `Paxos ->
      let cfg =
        {
          Mcheck.Model.n = 3;
          proposals = [| 10; 20; 30 |];
          max_session;
          gate;
        }
      in
      let o =
        Mcheck.Explorer.run ~max_depth:depth ~domains ~exact_keys ~registry
          cfg ~max_states
          ~properties:
            (if gate then Mcheck.Explorer.all_properties cfg
             else Mcheck.Explorer.safety_properties cfg)
      in
      Format.printf "model: modified-paxos core, n=3, sessions <= %d, gate %s, depth <= %d@."
        max_session
        (if gate then "on" else "off")
        depth;
      Format.printf "%a@." Mcheck.Explorer.pp_outcome o;
      (* pp_outcome already reports collisions *)
      footer None
  | `B_consensus ->
      let cfg =
        {
          Mcheck.Bc_model.n = 3;
          proposals = [| 10; 20; 30 |];
          max_round = max_session;
          mutation = None;
        }
      in
      let o =
        Mcheck.Explore.run ~domains ~exact_keys ~registry
          ~initial:(Mcheck.Bc_model.initial cfg)
          ~successors:(Mcheck.Bc_model.successors cfg)
          ~fingerprint:Mcheck.Bc_model.fingerprint ~key:Mcheck.Bc_model.key
          ~properties:
            [
              ("agreement", Mcheck.Bc_model.agreement);
              ("validity", fun st -> Mcheck.Bc_model.validity cfg st);
              ("lock-uniqueness", Mcheck.Bc_model.lock_uniqueness);
            ]
          ~max_depth:depth ~max_states ()
      in
      Format.printf "model: b-consensus round core, n=3, rounds <= %d, depth <= %d@."
        max_session depth;
      (match o.Mcheck.Explore.violation with
      | Some (name, st) ->
          Format.printf "VIOLATION of %s at %a@." name Mcheck.Bc_model.pp_state
            st
      | None ->
          Format.printf "%s: %d states, %d transitions, no violations@."
            (if o.Mcheck.Explore.complete then "exhaustive"
             else "bounded (cap hit)")
            o.Mcheck.Explore.states o.transitions);
      footer o.Mcheck.Explore.collisions

let check_cmd =
  let gate_arg =
    Arg.(
      value & opt bool true
      & info [ "gate" ] ~docv:"BOOL"
          ~doc:"Session gate on (the paper's algorithm) or off (ablation).")
  in
  let session_arg =
    Arg.(
      value & opt int 1
      & info [ "max-session" ] ~docv:"S" ~doc:"Session cap for the model.")
  in
  let depth_arg =
    Arg.(
      value & opt int 8
      & info [ "depth" ] ~docv:"D" ~doc:"Exploration depth bound.")
  in
  let states_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-states" ] ~docv:"K" ~doc:"State-count cap.")
  in
  let model_arg =
    Arg.(
      value
      & opt (enum [ ("paxos", `Paxos); ("b-consensus", `B_consensus) ]) `Paxos
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "$(b,paxos) (the session-gated core) or $(b,b-consensus) (the \
             Section 5 round core; --max-session bounds rounds).")
  in
  let domains_arg =
    Arg.(
      value & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for frontier expansion (default: \
             $(b,SIM_DOMAINS) or the recommended domain count).  Results \
             are identical at any value; 1 runs fully serial.")
  in
  let exact_keys_arg =
    Arg.(
      value & flag
      & info [ "exact-keys" ]
          ~doc:
            "Verification mode: key the visited set on full structural \
             state keys (authoritative) and count 128-bit fingerprint \
             collisions against them.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Bounded model checking of the protocol cores (time-free \
          over-approximation; safety results transfer to all timed \
          executions).")
    Term.(
      const check_impl $ model_arg $ gate_arg $ session_arg $ depth_arg
      $ states_arg $ domains_arg $ exact_keys_arg)

(* ------------------------------------------------------------------ *)
(* trace: replay / import, filter, timeline, invariants                *)
(* ------------------------------------------------------------------ *)

(* The process a trace entry "belongs to" for --filter proc= and the
   timeline: senders own their sends, receivers own deliveries/drops. *)
let entry_procs = function
  | Sim.Trace.Send { src; dst; _ }
  | Sim.Trace.Deliver { src; dst; _ }
  | Sim.Trace.Drop { src; dst; _ } ->
      [ src; dst ]
  | Sim.Trace.Timer_set { proc; _ }
  | Sim.Trace.Timer_fire { proc; _ }
  | Sim.Trace.Crash { proc; _ }
  | Sim.Trace.Restart { proc; _ }
  | Sim.Trace.Decide { proc; _ }
  | Sim.Trace.Note { proc; _ } ->
      [ proc ]

let entry_kind = function
  | Sim.Trace.Send { payload; _ }
  | Sim.Trace.Deliver { payload; _ }
  | Sim.Trace.Drop { payload; _ } ->
      Some payload.Sim.Trace.kind
  | _ -> None

let entry_event_name = function
  | Sim.Trace.Send _ -> "send"
  | Sim.Trace.Deliver _ -> "deliver"
  | Sim.Trace.Drop _ -> "drop"
  | Sim.Trace.Timer_set _ -> "timer_set"
  | Sim.Trace.Timer_fire _ -> "timer_fire"
  | Sim.Trace.Crash _ -> "crash"
  | Sim.Trace.Restart _ -> "restart"
  | Sim.Trace.Decide _ -> "decide"
  | Sim.Trace.Note _ -> "note"

type trace_filter =
  | Fproc of int
  | Fkind of string
  | Fwindow of float * float

let filter_conv =
  let parse s =
    match String.index_opt s '=' with
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "bad filter %S (want proc=N, kind=K or window=LO:HI)" s))
    | Some i -> (
        let key = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        match key with
        | "proc" -> (
            match int_of_string_opt v with
            | Some p -> Ok (Fproc p)
            | None -> Error (`Msg (Printf.sprintf "bad process id %S" v)))
        | "kind" -> Ok (Fkind v)
        | "window" -> (
            match String.split_on_char ':' v with
            | [ lo; hi ] -> (
                match (float_of_string_opt lo, float_of_string_opt hi) with
                | Some lo, Some hi -> Ok (Fwindow (lo, hi))
                | _ ->
                    Error (`Msg (Printf.sprintf "bad window %S (want LO:HI)" v))
                )
            | _ -> Error (`Msg (Printf.sprintf "bad window %S (want LO:HI)" v)))
        | k -> Error (`Msg (Printf.sprintf "unknown filter key %S" k)))
  in
  let print fmt = function
    | Fproc p -> Format.fprintf fmt "proc=%d" p
    | Fkind k -> Format.fprintf fmt "kind=%s" k
    | Fwindow (lo, hi) -> Format.fprintf fmt "window=%g:%g" lo hi
  in
  Arg.conv (parse, print)

let filter_matches filters e =
  List.for_all
    (fun f ->
      match f with
      | Fproc p -> List.mem p (entry_procs e)
      | Fkind k -> entry_kind e = Some k || entry_event_name e = k
      | Fwindow (lo, hi) ->
          Sim.Sim_time.in_window (Sim.Trace.time_of e) ~lo ~hi)
    filters

(* ASCII per-process timeline: one row per process, one column per time
   bucket; the highest-priority event in a bucket wins its cell. *)
let print_timeline fmt trace =
  let len = Sim.Trace.length trace in
  if len = 0 then Format.fprintf fmt "(empty trace)@."
  else begin
    let n =
      Sim.Trace.fold
        (fun acc e -> List.fold_left Int.max acc (entry_procs e))
        0 trace
      + 1
    in
    let t0 = Sim.Trace.time_of (Sim.Trace.get trace 0) in
    let t1 = Sim.Trace.time_of (Sim.Trace.get trace (len - 1)) in
    let width = 64 in
    let span = Float.max (t1 -. t0) 1e-12 in
    let rows = Array.init n (fun _ -> Bytes.make width ' ') in
    let rank = function
      | 'D' -> 9
      | 'X' -> 8
      | 'R' -> 7
      | '!' -> 6
      | 'o' -> 5
      | '>' -> 4
      | 't' -> 3
      | '~' -> 2
      | _ -> 0
    in
    let put proc t ch =
      let col =
        Int.min (width - 1)
          (int_of_float ((t -. t0) /. span *. float_of_int width))
      in
      if rank ch > rank (Bytes.get rows.(proc) col) then
        Bytes.set rows.(proc) col ch
    in
    Sim.Trace.iter
      (fun e ->
        match e with
        | Sim.Trace.Send { t; src; _ } -> put src t '>'
        | Sim.Trace.Deliver { t; dst; _ } -> put dst t 'o'
        | Sim.Trace.Drop { t; dst; _ } -> put dst t '!'
        | Sim.Trace.Timer_fire { t; proc; _ } -> put proc t 't'
        | Sim.Trace.Timer_set _ -> ()
        | Sim.Trace.Crash { t; proc } -> put proc t 'X'
        | Sim.Trace.Restart { t; proc } -> put proc t 'R'
        | Sim.Trace.Decide { t; proc; _ } -> put proc t 'D'
        | Sim.Trace.Note { t; proc; _ } -> put proc t '~')
      trace;
    Format.fprintf fmt "timeline %s .. %s (%d entries; col = %.4gs)@."
      (Sim.Sim_time.to_string t0) (Sim.Sim_time.to_string t1) len
      (span /. float_of_int width);
    Array.iteri
      (fun p row -> Format.fprintf fmt "  p%-3d |%s|@." p (Bytes.to_string row))
      rows;
    Format.fprintf fmt
      "  legend: D decide, X crash, R restart, ! drop, o deliver, > send, \
       t timer, ~ note@."
  end

let print_trace_summary fmt trace =
  let counts = Hashtbl.create 9 in
  Sim.Trace.iter
    (fun e ->
      let k = entry_event_name e in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    trace;
  let parts =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt counts k with
        | Some c -> Some (Printf.sprintf "%s %d" k c)
        | None -> None)
      [
        "send"; "deliver"; "drop"; "timer_set"; "timer_fire"; "crash";
        "restart"; "decide"; "note";
      ]
  in
  Format.fprintf fmt "entries: %d retained (%d recorded)%s@."
    (Sim.Trace.length trace)
    (Sim.Trace.total_recorded trace)
    (match parts with [] -> "" | _ -> ": " ^ String.concat ", " parts);
  List.iter
    (fun (p, t, v) ->
      Format.fprintf fmt "  p%d decided %d at %a@." p v Sim.Sim_time.pp t)
    (Sim.Trace.decisions trace)

(* Whole-file read that also works on pipes (e.g. /dev/stdin), whose
   length is unknown up front. *)
let read_whole_file path = In_channel.with_open_bin path In_channel.input_all

(* The trace to inspect, with what checking it needs: imported from
   [--import], else replayed from [id]; [None] when neither is given. *)
let load_trace id import =
  match (import, id) with
  | Some path, _ -> (
      match Sim.Trace.of_jsonl (read_whole_file path) with
      | Ok t ->
          Format.printf "imported %d entries from %s@." (Sim.Trace.length t)
            path;
          Some (t, None, None, None)
      | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))
  | None, Some id ->
      Option.map
        (fun Harness.Experiments.
               { replay_id; scenario; trace; metrics; proposals;
                 timer_bounds; _ } ->
          Format.printf "replayed %s: scenario %a@." replay_id Sim.Scenario.pp
            scenario;
          (trace, proposals, timer_bounds, Some metrics))
        (Harness.Experiments.replay id)
  | None, None -> None

let inspect_trace (trace, proposals, timer_bounds, metrics) export filters
    timeline stats =
  print_trace_summary Format.std_formatter trace;
  (match export with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (Sim.Trace.to_jsonl trace);
      close_out oc;
      Format.printf "exported %d entries to %s@." (Sim.Trace.length trace)
        path
  | None -> ());
  if filters <> [] then begin
    Format.printf "--- matching entries ---@.";
    let shown =
      Sim.Trace.fold
        (fun shown e ->
          if filter_matches filters e then begin
            Format.printf "%a@." Sim.Trace.pp_entry e;
            shown + 1
          end
          else shown)
        0 trace
    in
    Format.printf "--- %d matching entries ---@." shown
  end;
  if timeline then print_timeline Format.std_formatter trace;
  if stats then begin
    match metrics with
    | Some m -> Format.printf "--- metrics ---@.%a@." Sim.Registry.pp m
    | None ->
        Format.printf
          "(no metrics: imported traces carry events only; metrics live in \
           the run's registry)@."
  end;
  let report = Harness.Invariants.check ?proposals ?timer_bounds trace in
  Format.printf "%a@." Harness.Invariants.pp report;
  if not (Harness.Invariants.ok report) then exit 1

let trace_impl id import export filters timeline stats =
  match load_trace id import with
  | Some loaded -> `Ok (inspect_trace loaded export filters timeline stats)
  | None ->
      `Error
        ( true,
          "nothing to do: give an experiment id (see `consensus-sim list`) \
           or --import FILE" )

let trace_cmd =
  let id_arg =
    Arg.(
      value
      & pos 0 (some (experiment_id_conv ~extra:[])) None
      & info [] ~docv:"ID"
          ~doc:("Experiment id to replay with tracing on: "
               ^ String.concat ", " Harness.Experiments.ids))
  in
  let import_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "import" ] ~docv:"FILE"
          ~doc:"Check a previously exported JSONL trace instead of replaying.")
  in
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"FILE" ~doc:"Write the trace as JSONL.")
  in
  let filter_arg =
    Arg.(
      value
      & opt_all filter_conv []
      & info [ "filter" ] ~docv:"KEY=VALUE"
          ~doc:
            "Print entries matching all given filters: $(b,proc=N) \
             (involving process N), $(b,kind=K) (message kind like 1a/2b, \
             or an event name like decide), $(b,window=LO:HI) (seconds). \
             Repeatable.")
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ] ~doc:"Draw an ASCII per-process timeline.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the run's metrics registry (counters, histograms).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay an experiment scenario with structured tracing (or import \
          a JSONL trace), inspect it, and check trace invariants.  Exits \
          non-zero if any invariant fails."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"on a trace-invariant violation."
         :: Cmd.Exit.defaults))
    Term.(
      ret
        (const trace_impl $ id_arg $ import_arg $ export_arg $ filter_arg
       $ timeline_arg $ stats_arg))

(* ------------------------------------------------------------------ *)
(* realtime                                                            *)
(* ------------------------------------------------------------------ *)

let realtime_impl proto n delta ts seed =
  let sc =
    Sim.Scenario.make ~name:"realtime" ~n ~ts ~delta ~seed
      ~network:Sim.Network.silent_until_ts
      ~horizon:(ts +. Float.max 2.0 (200. *. delta))
      ~record_trace:true ~trace_capacity:65536 ()
  in
  match
    (Harness.Protocols.entry proto).build ~n ~delta ~ts ~rho:0.
      ~faults:Sim.Fault.none ()
  with
  | Harness.Protocols.Packed { protocol; _ } ->
      let r = Realtime.Netio_engine.run sc protocol in
      print_result ~ts ~delta r ~trace:false;
      (* The simulator's trace checker, without timer bounds: real
         scheduling jitters. *)
      let report = Harness.Invariants.check_run r in
      Format.printf "%a@." Harness.Invariants.pp report;
      if
        Result.is_error (Harness.Measure.check_safety r)
        || (not (Sim.Engine.all_decided r))
        || not (Harness.Invariants.ok report)
      then exit 1

let realtime_cmd =
  let delta_rt =
    Arg.(
      value & opt float 0.02
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:"Delivery bound; keep >= 10 ms for scheduler headroom.")
  in
  let ts_rt =
    Arg.(
      value & opt float 0.25
      & info [ "ts" ] ~docv:"SECONDS" ~doc:"Stabilization instant.")
  in
  Cmd.v
    (Cmd.info "realtime"
       ~doc:
         "Run the protocol on a wall-clock event loop with real delays \
          instead of the simulator (silent before TS, times in seconds \
          from the start of the run).  Exits non-zero unless every \
          process decides, agreement and validity hold and the trace \
          invariants pass."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when a process does not decide by the deadline, on an \
               agreement or validity violation, or on a trace-invariant \
               violation."
         :: Cmd.Exit.defaults))
    Term.(const realtime_impl $ proto_arg $ n_arg $ delta_rt $ ts_rt $ seed_arg)

(* ------------------------------------------------------------------ *)
(* serve / client: the real-process socket cluster                     *)
(* ------------------------------------------------------------------ *)

(* [HOST:PORT] with a non-empty host and a port in 0..65535. *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> None
  | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some port when host <> "" && port >= 0 && port <= 65535 ->
          Some (host, port)
      | Some _ | None -> None)

let pp_endpoint fmt (h, p) = Format.fprintf fmt "%s:%d" h p

let endpoint_conv =
  let parse s =
    Option.to_result ~none:(`Msg "expected HOST:PORT") (parse_endpoint s)
  in
  Arg.conv (parse, pp_endpoint)

let cluster_conv =
  let parse s =
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | hp :: rest -> (
          match parse_endpoint hp with
          | Some e -> go (e :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "%S: expected HOST:PORT" hp)))
    in
    if s = "" then Error (`Msg "empty --cluster")
    else go [] (String.split_on_char ',' s)
  in
  let print fmt c =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
      pp_endpoint fmt (Array.to_list c)
  in
  Arg.conv (parse, print)

let cluster_arg =
  Arg.(
    required
    & opt (some cluster_conv) None
    & info [ "cluster" ] ~docv:"HOST:PORT,..."
        ~doc:
          "Comma-separated replica endpoints, one per replica, in id \
           order (identical on every replica and client).")

let serve_impl id cluster bind delta batch window snapshot seed verbose =
  if id < 0 || id >= Array.length cluster then begin
    Printf.eprintf "serve: --id %d out of range for a %d-replica cluster\n"
      id (Array.length cluster);
    exit 3
  end;
  let cfg =
    {
      Smr.Replica.id;
      cluster;
      bind;
      delta;
      batch;
      window;
      snapshot;
      seed = Int64.to_int seed;
      verbose;
    }
  in
  match Smr.Replica.create cfg with
  | exception Unix.Unix_error (e, _, _) ->
      let host, port =
        match bind with Some hp -> hp | None -> cluster.(id)
      in
      Printf.eprintf "serve: cannot bind %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 3
  | exception Invalid_argument msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit 3
  | r ->
      let quit _ = Smr.Replica.stop r in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
      Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
      let host =
        match bind with Some (h, _) -> h | None -> fst cluster.(id)
      in
      Printf.printf "replica %d serving on %s:%d (batch %d, window %d)\n%!"
        id host (Smr.Replica.port r) batch window;
      (try Smr.Replica.run r
       with Smr.Replica.Bad_snapshot msg ->
         Printf.eprintf "serve: refusing to boot from a bad snapshot: %s\n"
           msg;
         exit 3);
      let reg = Smr.Replica.registry r in
      (* kv_checksum=/kv_applied= are parsed by the chaos campaign's
         agreement check — keep them machine-readable *)
      Printf.printf
        "replica %d stopped: %d requests, %d decrees applied, \
         kv_applied=%d kv_checksum=%d\n%!"
        id
        (Sim.Registry.counter_total reg "serve_requests")
        (Sim.Registry.counter_total reg "serve_decrees")
        (Smr.Replica.kv_applied r)
        (Smr.Replica.kv_checksum r)

let serve_cmd =
  let id_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"I" ~doc:"This replica's index into --cluster.")
  in
  let delta_arg =
    Arg.(
      value & opt float 0.05
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:"Post-stabilization delivery bound the protocol assumes.")
  in
  let batch_arg =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max client commands folded into one decree.")
  in
  let window_arg =
    Arg.(
      value & opt int 32
      & info [ "window" ] ~docv:"N"
          ~doc:"Max own decrees pipelined in flight.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"PATH"
          ~doc:
            "Durable-essence file: written periodically while serving, \
             loaded on startup when present (crash recovery).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Progress chatter on stderr.")
  in
  let bind_arg =
    Arg.(
      value
      & opt (some endpoint_conv) None
      & info [ "bind" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen here instead of the --cluster entry for --id: used \
             when a chaos proxy owns the advertised address and forwards \
             to this backend.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one replica of the replicated KV service over real sockets \
          (wire protocol: WIRE.md).  Stop with SIGTERM/SIGINT."
       ~exits:
         (Cmd.Exit.info 3 ~doc:"when the listener cannot bind or the \
                                configuration is malformed."
         :: Cmd.Exit.defaults))
    Term.(
      const serve_impl $ id_arg $ cluster_arg $ bind_arg $ delta_arg
      $ batch_arg $ window_arg $ snapshot_arg $ seed_arg $ verbose_arg)

let pp_reply fmt = function
  | Smr.Wire.R_stored -> Format.pp_print_string fmt "stored"
  | Smr.Wire.R_value None -> Format.pp_print_string fmt "(absent)"
  | Smr.Wire.R_value (Some v) -> Format.pp_print_string fmt v
  | Smr.Wire.R_cas { ok = true; _ } -> Format.pp_print_string fmt "cas-ok"
  | Smr.Wire.R_cas { ok = false; actual = None } ->
      Format.pp_print_string fmt "cas-fail (absent)"
  | Smr.Wire.R_cas { ok = false; actual = Some v } ->
      Format.fprintf fmt "cas-fail (actual %s)" v
  | Smr.Wire.R_redirect { leader } -> Format.fprintf fmt "redirect %d" leader
  | Smr.Wire.R_error msg -> Format.fprintf fmt "error: %s" msg

(* One latency-trace line, {"t":<epoch>,"lat":<seconds>}; [None] for a
   line that is not such an object. *)
let parse_trace_line line =
  let ( let* ) = Result.bind in
  Result.to_option
    (let* j = Sim.Json.parse line in
     let num k = Result.bind (Sim.Json.member k j) Sim.Json.to_float in
     let* t = num "t" in
     let* lat = num "lat" in
     Ok (t, lat))

let check_recovery_impl path after delta n =
  let cfg = Dgl.Config.make ~n ~delta () in
  let bound = Dgl.Config.decision_bound cfg in
  let samples = ref [] in
  let ic = open_in path in
  (try
     while true do
       match parse_trace_line (input_line ic) with
       | Some s -> samples := s :: !samples
       | None -> ()
     done
   with End_of_file -> close_in ic);
  let samples = List.rev !samples in
  if samples = [] then begin
    Printf.eprintf "check-recovery: %s holds no samples\n" path;
    exit 1
  end;
  let v = Smr.Recovery.check ~bound ~after samples in
  Printf.printf
    "check-recovery: kill at %.3f, decision bound %.3fs (+%.3fs slack)\n"
    after v.Smr.Recovery.bound v.Smr.Recovery.slack;
  Format.printf "  @[<v>%a@]@." Smr.Recovery.pp v;
  if Smr.Recovery.ok v then Printf.printf "  recovery bound respected\n"
  else exit 1

let client_impl cluster member op_args load commands pipeline value_bytes
    keyspace seed latency_trace check_recovery after delta verbose =
  match check_recovery with
  | Some path -> check_recovery_impl path after delta (Array.length cluster)
  | None -> (
      let connect () =
        match Smr.Client.connect ~verbose ~prefer:member cluster with
        | c -> c
        | exception Smr.Client.Disconnected msg ->
            Printf.eprintf "client: %s\n" msg;
            exit 3
      in
      if load then begin
        let c = connect () in
        let report =
          Smr.Client.run_load c
            {
              Smr.Client.commands;
              pipeline;
              value_bytes;
              keyspace;
              seed = Int64.to_int seed;
              mix = Smr.Client.Mixed;
              latency_trace;
            }
        in
        Smr.Client.close c;
        let reg = Sim.Registry.create () in
        Array.iter
          (fun l ->
            Sim.Registry.observe reg "serve_client_latency_delta" (l /. delta))
          report.Smr.Client.latencies;
        let pct q =
          match report.Smr.Client.latencies with
          | [||] -> 0.
          | sorted -> Sim.Metrics.percentile_sorted q sorted
        in
        Printf.printf
          "load: %d commands in %.3fs = %.0f cmd/s (%d resubmitted, %d \
           reconnects, %.3fs backoff)\n"
          report.Smr.Client.completed report.Smr.Client.elapsed
          report.Smr.Client.throughput report.Smr.Client.resubmitted
          report.Smr.Client.reconnects report.Smr.Client.backoff;
        Printf.printf
          "latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, max %.1f ms\n"
          (1000. *. pct 0.5) (1000. *. pct 0.9) (1000. *. pct 0.99)
          (1000. *. pct 1.0);
        Printf.printf "%s\n" (Sim.Json.print (Sim.Registry.to_json reg));
        if report.Smr.Client.completed < commands then exit 1
      end
      else
        match op_args with
        | [ "get"; key ] ->
            let c = connect () in
            Format.printf "%a@." pp_reply (Smr.Client.get c key);
            Smr.Client.close c
        | [ "set"; key; value ] ->
            let c = connect () in
            Format.printf "%a@." pp_reply (Smr.Client.put c ~key ~value);
            Smr.Client.close c
        | [ "cas"; key; expect; set ] ->
            let c = connect () in
            let expect = if expect = "-" then None else Some expect in
            Format.printf "%a@." pp_reply (Smr.Client.cas c ~key ~expect ~set);
            Smr.Client.close c
        | [] ->
            Printf.eprintf
              "client: expected an operation (get K | set K V | cas K E V, \
               E = '-' for absent) or --load\n";
            exit 124
        | args ->
            Printf.eprintf "client: cannot parse operation: %s\n"
              (String.concat " " args);
            exit 124)

let client_cmd =
  let ops_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"OP"
          ~doc:
            "Synchronous operation: $(b,get) KEY, $(b,set) KEY VALUE, or \
             $(b,cas) KEY EXPECT NEW (EXPECT $(b,-) means absent).")
  in
  let load_arg =
    Arg.(
      value & flag
      & info [ "load" ]
          ~doc:"Run the closed-loop load generator instead of one operation.")
  in
  let member_arg =
    Arg.(
      value & opt int 0
      & info [ "member" ] ~docv:"I"
          ~doc:
            "Replica to talk to first (concurrent load generators should \
             each prefer a different one).")
  in
  let commands_arg =
    Arg.(
      value & opt int 100_000
      & info [ "commands" ] ~docv:"N" ~doc:"Commands to push under --load.")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 64
      & info [ "pipeline" ] ~docv:"W"
          ~doc:"Outstanding requests kept in flight under --load.")
  in
  let value_bytes_arg =
    Arg.(
      value & opt int 16
      & info [ "value-bytes" ] ~docv:"B" ~doc:"Value size under --load.")
  in
  let keyspace_arg =
    Arg.(
      value & opt int 1024
      & info [ "keyspace" ] ~docv:"K" ~doc:"Distinct keys under --load.")
  in
  let latency_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "latency-trace" ] ~docv:"FILE"
          ~doc:
            "Write one {\"t\":epoch,\"lat\":seconds} JSONL line per \
             completed command (input of --check-recovery).")
  in
  let check_recovery_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-recovery" ] ~docv:"FILE"
          ~doc:
            "Assert the paper's recovery/decision bound on a recorded \
             latency trace instead of talking to the cluster.")
  in
  let after_arg =
    Arg.(
      value & opt float 0.
      & info [ "after" ] ~docv:"EPOCH"
          ~doc:"Wall-clock instant of the replica kill (--check-recovery).")
  in
  let delta_arg =
    Arg.(
      value & opt float 0.05
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:"Delta used to derive the bound (--check-recovery) and to \
                scale latency histogram buckets (--load).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Progress chatter on stderr.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running cluster: one synchronous KV operation, the \
          --load generator, or --check-recovery over a recorded trace."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when --load completes short or --check-recovery finds the \
               bound violated."
         :: Cmd.Exit.info 3 ~doc:"when no cluster member is reachable."
         :: Cmd.Exit.defaults))
    Term.(
      const client_impl $ cluster_arg $ member_arg $ ops_arg $ load_arg
      $ commands_arg $ pipeline_arg $ value_bytes_arg $ keyspace_arg
      $ seed_arg $ latency_trace_arg $ check_recovery_arg $ after_arg
      $ delta_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* fuzz / replay                                                       *)
(* ------------------------------------------------------------------ *)

let fuzz_impl budget seed domains protocol corpus_dir =
  (* lint: allow R1 — elapsed-time display for the operator, not part
     of any simulated run *)
  let t0 = Unix.gettimeofday () in
  let domains =
    match domains with
    | Some d -> d
    | None -> Harness.Measure.domain_count ()
  in
  (* Everything on stdout is a pure function of (budget, seed, protocol)
     — identical at any --domains; wall-clock and pool size go to stderr
     so stdout can be diffed across domain counts. *)
  let summary =
    Harness.Measure.with_domains domains (fun () ->
        Harness.Fuzz.campaign ?protocol ~budget ~seed ())
  in
  Format.printf "%a" Harness.Fuzz.pp_summary summary;
  (match corpus_dir with
  | Some dir ->
      List.iter
        (fun cx ->
          let path =
            Harness.Fuzz.save_entry ~dir
              (Harness.Fuzz.entry_of_counterexample cx)
          in
          Format.printf "saved %s@." path)
        summary.Harness.Fuzz.counterexamples
  | None -> ());
  (* lint: allow R1 — elapsed-time display for the operator *)
  let elapsed = Unix.gettimeofday () -. t0 in
  Format.eprintf "(%d domain%s, %.1fs)@." domains
    (if domains = 1 then "" else "s")
    elapsed;
  if summary.Harness.Fuzz.failures > 0 then exit 1

let fuzz_cmd =
  let budget_arg =
    Arg.(
      value & opt int 100
      & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to generate.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for the campaign (default: $(b,SIM_DOMAINS) or \
             the recommended domain count).  The summary is identical at \
             any value; 1 runs fully serial.")
  in
  let protocol_arg =
    Arg.(
      value
      & opt (some protocol_conv) None
      & info [ "protocol"; "p" ] ~docv:"P"
          ~doc:
            "Fuzz only this protocol.  Default: a mix of every correct \
             implementation; $(b,ungated-paxos) (the A1 ablation, broken \
             by design) is only fuzzed when named here.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-corpus" ] ~docv:"DIR"
          ~doc:
            "Write each shrunk counterexample as a corpus JSON file into \
             DIR (see test/corpus/README.md).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a seeded fault-injection campaign: random admissible \
          scenarios (crashes, restarts, losses, partitions, duplication, \
          reordering, clock drift, obsolete-message injections) checked \
          against the trace invariants and a liveness deadline; every \
          violation is shrunk to a minimal counterexample."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"when the campaign found violations."
         :: Cmd.Exit.defaults))
    Term.(
      const fuzz_impl $ budget_arg $ seed_arg $ domains_arg $ protocol_arg
      $ corpus_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* A chaos corpus file is the schedule document plus the load shape
   that exposed the failure, so `replay` re-runs the exact campaign. *)
let chaos_entry_to_json schedule ~commands ~pipeline =
  match Chaos.Schedule.to_json schedule with
  | Sim.Json.Obj fields ->
      Sim.Json.Obj
        (fields
        @ [
            ("commands", Sim.Json.int commands);
            ("pipeline", Sim.Json.int pipeline);
          ])
  | j -> j

let chaos_entry_of_json j =
  match Chaos.Schedule.of_json j with
  | Error _ as e -> e
  | Ok schedule ->
      let geti name default =
        match Sim.Json.member_opt name j with
        | Some v -> (
            match Sim.Json.to_int v with Ok i -> i | Error _ -> default)
        | None -> default
      in
      Ok (schedule, geti "commands" 50_000, geti "pipeline" 128)

let serve_argv ~delta ~id ~cluster ~bind ~snapshot =
  [|
    Sys.executable_name;
    "serve";
    "--id";
    string_of_int id;
    "--cluster";
    cluster;
    "--bind";
    bind;
    "--snapshot";
    snapshot;
    "--delta";
    Printf.sprintf "%g" delta;
    "--batch";
    "256";
    "--window";
    "64";
  |]

let with_scratch_dir f =
  let dir =
    Filename.temp_file "chaos-campaign" ""
  in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir dir with
      | names ->
          Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ()) names;
          (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> f dir)

let run_campaign schedule ~commands ~pipeline ~in_process ~save_failing
    ~verbose =
  Format.printf "chaos: %a@." Chaos.Schedule.pp schedule;
  let run mode =
    Chaos.Campaign.run
      {
        (Chaos.Campaign.default_config schedule) with
        Chaos.Campaign.commands;
        pipeline;
        mode;
        verbose;
      }
  in
  let outcome =
    if in_process then run Chaos.Campaign.In_process
    else
      with_scratch_dir (fun dir ->
          run
            (Chaos.Campaign.Subprocess
               {
                 argv = serve_argv ~delta:schedule.Chaos.Schedule.delta;
                 dir;
               }))
  in
  Format.printf "%a" Chaos.Campaign.pp_outcome outcome;
  (match outcome.Chaos.Campaign.report with
  | Some r ->
      Format.printf "load: %d commands in %.3fs = %.0f cmd/s@."
        r.Smr.Client.completed r.Smr.Client.elapsed r.Smr.Client.throughput
  | None -> ());
  Format.printf "%s@."
    (Sim.Json.print (Sim.Registry.to_json outcome.Chaos.Campaign.registry));
  if Chaos.Campaign.ok outcome then ()
  else begin
    (match save_failing with
    | None -> ()
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error ((Unix.EEXIST | Unix.EPERM), _, _) -> ());
        let path =
          Filename.concat dir
            (Printf.sprintf "%s.json" schedule.Chaos.Schedule.name)
        in
        let oc = open_out path in
        output_string oc
          (Sim.Json.print_pretty
             (chaos_entry_to_json schedule ~commands ~pipeline));
        output_char oc '\n';
        close_out oc;
        Format.printf "failing schedule saved to %s (replay with: \
                       consensus_sim replay %s)@."
          path path);
    exit 1
  end

let chaos_impl seed n ts delta horizon commands pipeline schedule_file
    print_schedule in_process save_failing verbose =
  let schedule =
    match schedule_file with
    | Some path -> (
        match Sim.Json.parse (read_whole_file path) with
        | Error msg ->
            Printf.eprintf "chaos: %s: %s\n" path msg;
            exit 3
        | Ok j -> (
            match Chaos.Schedule.of_json j with
            | Error msg ->
                Printf.eprintf "chaos: %s: %s\n" path msg;
                exit 3
            | Ok s -> s))
    | None -> (
        let horizon = if horizon > 0. then horizon else ts +. 2.0 in
        match Chaos.Schedule.generate ~seed ~n ~ts ~delta ~horizon () with
        | s -> s
        | exception Invalid_argument msg ->
            Printf.eprintf "chaos: %s\n" msg;
            exit 3)
  in
  if print_schedule then
    print_endline (Sim.Json.print_pretty (Chaos.Schedule.to_json schedule))
  else
    run_campaign schedule ~commands ~pipeline ~in_process ~save_failing
      ~verbose

let chaos_cmd =
  let n_arg =
    Arg.(
      value & opt int 3
      & info [ "n" ] ~docv:"N" ~doc:"Cluster size (3-5 is the usual range).")
  in
  let ts_arg =
    Arg.(
      value & opt float 0.5
      & info [ "ts" ] ~docv:"SECONDS"
          ~doc:
            "Stabilization point of the generated schedule: disruptive \
             faults end by then.")
  in
  let delta_arg =
    Arg.(
      value & opt float 0.02
      & info [ "delta" ] ~docv:"SECONDS"
          ~doc:"Post-stabilization delivery bound (added latency cap).")
  in
  let horizon_arg =
    Arg.(
      value & opt float 0.
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:
            "End of scheduled interference (default ts + 2): delta-bounded \
             latency is injected until then.")
  in
  let commands_arg =
    Arg.(
      value & opt int 120_000
      & info [ "commands" ] ~docv:"N"
          ~doc:
            "Load size; must keep the client running past the settle point \
             so the recovery bound has post-settle samples.")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 256
      & info [ "pipeline" ] ~docv:"N" ~doc:"Client pipelining depth.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Run this schedule file instead of generating one from --seed.")
  in
  let print_arg =
    Arg.(
      value & flag
      & info [ "print-schedule" ]
          ~doc:
            "Print the (generated or loaded) schedule as JSON and exit — \
             the same seed prints byte-identical output.")
  in
  let in_process_arg =
    Arg.(
      value & flag
      & info [ "in-process" ]
          ~doc:
            "Run replicas on threads in this process instead of spawning \
             real serve processes (cheaper; direct state probes).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) (Some "chaos-failures")
      & info [ "save-failing" ] ~docv:"DIR"
          ~doc:
            "Persist the schedule of a failing campaign here for replay \
             (default chaos-failures).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Progress chatter on stderr.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a live localhost cluster behind the deterministic chaos \
          proxy and assert the robustness contract: lossless completion, \
          exactly-once effects, replica agreement, and the paper's \
          recovery bound after the schedule's stabilization point."
       ~exits:
         (Cmd.Exit.info 1 ~doc:"when the robustness contract is violated."
         :: Cmd.Exit.info 3
              ~doc:"when the environment prevents the campaign from running."
         :: Cmd.Exit.defaults))
    Term.(
      const chaos_impl $ seed_arg $ n_arg $ ts_arg $ delta_arg $ horizon_arg
      $ commands_arg $ pipeline_arg $ schedule_arg $ print_arg
      $ in_process_arg $ save_arg $ verbose_arg)

let replay_chaos path j =
  match chaos_entry_of_json j with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok (schedule, commands, pipeline) ->
      Format.printf "%s: replaying chaos campaign@." path;
      run_campaign schedule ~commands ~pipeline ~in_process:true
        ~save_failing:None ~verbose:false

let replay_impl paths =
  if paths = [] then
    failwith "replay: give at least one corpus file (test/corpus/*.json)";
  let ok =
    List.fold_left
      (fun ok path ->
        let j =
          match Sim.Json.parse (read_whole_file path) with
          | Ok j -> j
          | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
        in
        match Sim.Json.member_opt "format" j with
        | Some (Sim.Json.Str f) when f = Chaos.Schedule.format_tag ->
            replay_chaos path j;
            ok
        | Some _ | None -> (
            match Harness.Fuzz.entry_of_json j with
            | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
            | Ok entry -> (
                match Harness.Fuzz.replay entry with
                | Ok o ->
                    Format.printf
                      "%s: reproduced %s (%a; %d events, %d decided)@." path
                      entry.Harness.Fuzz.check Harness.Fuzz_scenario.pp
                      entry.Harness.Fuzz.scenario o.Harness.Fuzz.events
                      o.Harness.Fuzz.decided;
                    ok
                | Error (saw, _) ->
                    Format.printf "%s: NOT reproduced — expected %s, saw %s@."
                      path entry.Harness.Fuzz.check saw;
                    false)))
      true paths
  in
  if not ok then exit 1

let replay_cmd =
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Corpus files to re-execute.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute fuzzer counterexamples from corpus files and check \
          that each still violates its recorded invariant."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"when a file no longer reproduces its violation."
         :: Cmd.Exit.defaults))
    Term.(const replay_impl $ paths_arg)

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_impl () =
  Format.printf "protocols:@.";
  List.iter (fun (name, _) -> Format.printf "  %s@." name) protocols;
  Format.printf "  smr@.";
  Format.printf "networks:@.";
  List.iter (fun (name, _) -> Format.printf "  %s@." name) (networks 0.01);
  Format.printf "experiments:@.";
  List.iter (fun id -> Format.printf "  %s@." id) Harness.Experiments.ids

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List protocols, networks and experiments.")
    Term.(const list_impl $ const ())

let main =
  Cmd.group
    (Cmd.info "consensus-sim" ~version:"1.0.0"
       ~doc:
         "Reproduction of \"How Fast Can Eventual Synchrony Lead to \
          Consensus?\" (Dutta, Guerraoui, Lamport; DSN 2005).")
    [
      run_cmd;
      experiment_cmd;
      trace_cmd;
      fuzz_cmd;
      replay_cmd;
      sweep_cmd;
      check_cmd;
      realtime_cmd;
      serve_cmd;
      client_cmd;
      chaos_cmd;
      list_cmd;
    ]

let () = exit (Cmd.eval main)
