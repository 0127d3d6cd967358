(* Campaign runner: stand a 3-5 replica cluster up behind the chaos
   proxy, push the PR 7 load generator through the scheduled faults,
   and assert the robustness contract — lossless completion,
   exactly-once effects, replica agreement, and the paper's recovery
   bound after the schedule's stabilization point.

   Two modes: [In_process] replicas on threads (tests, bench) with
   direct KV probes, and [Subprocess] real `serve` processes (the CLI
   and ./dev chaos-smoke) whose final KV checksums are parsed from
   their shutdown lines. *)

module Netio = Realtime.Netio

type mode =
  | In_process
  | Subprocess of {
      argv :
        id:int -> cluster:string -> bind:string -> snapshot:string ->
        string array;
          (* how to exec one replica; the campaign redirects its output *)
      dir : string;  (* scratch directory for snapshots and logs *)
    }

type config = {
  schedule : Schedule.t;
  commands : int;
  pipeline : int;
  value_bytes : int;
  client_timeout : float;
      (* per-wait receive timeout: under a partition this is how long
         the client waits before failing over, so it must sit well
         inside the recovery bound's stall allowance *)
  mode : mode;
  verbose : bool;
}

let default_config schedule =
  {
    schedule;
    commands = 50_000;
    pipeline = 128;
    value_bytes = 16;
    client_timeout = 0.75;
    mode = In_process;
    verbose = false;
  }

type check = { name : string; ok : bool; detail : string }

type outcome = {
  checks : check list;
  report : Smr.Client.report option;
  recovery : Smr.Recovery.verdict option;
  registry : Sim.Registry.t;  (* the proxy's chaos_* / netio_* counters *)
}

let ok outcome = List.for_all (fun c -> c.ok) outcome.checks

let pp_outcome fmt o =
  List.iter
    (fun c ->
      Format.fprintf fmt "%s %s: %s@." (if c.ok then "ok  " else "FAIL")
        c.name c.detail)
    o.checks

let expected_value ~value_bytes i =
  Printf.sprintf "%0*d" value_bytes (i land 0xffffff)

let decision_bound sched =
  Dgl.Config.decision_bound
    (Dgl.Config.make ~n:sched.Schedule.n ~delta:sched.Schedule.delta ())

(* sample key indices spread over the whole load *)
let sample_indices commands =
  let k = Stdlib.min 64 commands in
  List.init k (fun j -> j * commands / k)

let run_client cfg fronts =
  match
    Smr.Client.connect ~verbose:cfg.verbose ~prefer:0
      ~backoff_seed:(Int64.to_int cfg.schedule.Schedule.seed)
      fronts
  with
  | exception Smr.Client.Disconnected m -> Error ("connect: " ^ m)
  | c -> (
      match
        Smr.Client.run_load ~timeout:cfg.client_timeout c
          {
            Smr.Client.commands = cfg.commands;
            pipeline = cfg.pipeline;
            value_bytes = cfg.value_bytes;
            keyspace = 1;
            seed = Int64.to_int cfg.schedule.Schedule.seed;
            mix = Smr.Client.Unique_puts;
            latency_trace = None;
          }
      with
      | report ->
          Smr.Client.close c;
          Ok report
      | exception Smr.Client.Disconnected m ->
          Smr.Client.close c;
          Error ("load: " ^ m))

let settled_point cfg ~wall_t0 =
  let bound = decision_bound cfg.schedule in
  wall_t0 +. cfg.schedule.Schedule.ts +. bound
  +. Smr.Recovery.default_slack bound

(* A fast machine can drain the whole load before the settle point,
   leaving the recovery check nothing to judge.  [Unique_puts] is
   idempotent, so re-running a small prefix of the load keeps the
   cluster committing without changing its final state: the tail exists
   purely to collect latency samples past the settle point. *)
let settle_tail cfg fronts ~settled =
  if Netio.wall () >= settled then []
  else
    match
      Smr.Client.connect ~prefer:0
        ~backoff_seed:(Int64.to_int cfg.schedule.Schedule.seed + 1)
        fronts
    with
    | exception Smr.Client.Disconnected _ -> []
    | c ->
        let load =
          {
            Smr.Client.commands = Stdlib.min 500 cfg.commands;
            pipeline = Stdlib.min 32 cfg.pipeline;
            value_bytes = cfg.value_bytes;
            keyspace = 1;
            seed = Int64.to_int cfg.schedule.Schedule.seed;
            mix = Smr.Client.Unique_puts;
            latency_trace = None;
          }
        in
        let acc = ref [] in
        let give_up = Netio.wall () +. 30. in
        (try
           while Netio.wall () < settled +. 0.25 && Netio.wall () < give_up do
             let r = Smr.Client.run_load ~timeout:cfg.client_timeout c load in
             acc := !acc @ Array.to_list r.Smr.Client.samples
           done
         with Smr.Client.Disconnected _ -> ());
        Smr.Client.close c;
        !acc

let recovery_check cfg ~wall_t0 ?(tail = []) report =
  let bound = decision_bound cfg.schedule in
  let samples = Array.to_list report.Smr.Client.samples @ tail in
  Smr.Recovery.check ~bound ~after:(wall_t0 +. cfg.schedule.Schedule.ts)
    samples

let base_checks cfg outcome_report =
  match outcome_report with
  | Error m -> [ { name = "lossless"; ok = false; detail = m } ]
  | Ok r ->
      [
        {
          name = "lossless";
          ok = r.Smr.Client.completed = cfg.commands;
          detail =
            Printf.sprintf
              "%d/%d commands completed (%d resubmitted, %d reconnects, \
               %.3fs backoff)"
              r.Smr.Client.completed cfg.commands r.Smr.Client.resubmitted
              r.Smr.Client.reconnects r.Smr.Client.backoff;
        };
      ]

let recovery_to_check v =
  {
    name = "recovery";
    ok = Smr.Recovery.ok v;
    detail = Format.asprintf "@[<h>%a@]" Smr.Recovery.pp v;
  }

(* ------------------------------------------------------------------ *)
(* In-process mode                                                     *)
(* ------------------------------------------------------------------ *)

let quiesce_replicas replicas =
  (* wait until the replicas' applied state agrees and stops moving *)
  let deadline = 200 in
  let rec go i last stable =
    if i >= deadline || stable >= 3 then stable >= 3
    else begin
      Thread.delay 0.05;
      let sigs =
        Array.map
          (fun r -> (Smr.Replica.chosen_count r, Smr.Replica.kv_checksum r))
          replicas
      in
      let all_equal =
        Array.for_all (fun s -> s = sigs.(0)) sigs
      in
      if all_equal && last = Some sigs.(0) then go (i + 1) last (stable + 1)
      else go (i + 1) (Some sigs.(0)) 0
    end
  in
  go 0 None 0

type cluster = {
  proxy : Proxy.t;
  registry : Sim.Registry.t;
  replicas : Smr.Replica.t array;
  fronts : (string * int) array;
  wall_t0 : float;
  stop : unit -> unit;
}

let start_in_process ?(verbose = false) sched =
  let registry = Sim.Registry.create () in
  let proxy = Proxy.create ~schedule:sched ~registry () in
  let fronts = Proxy.fronts proxy in
  let replicas =
    Array.init sched.Schedule.n (fun i ->
        Smr.Replica.create
          {
            (Smr.Replica.default_config ~id:i ~cluster:fronts) with
            bind = Some ("127.0.0.1", 0);
            delta = sched.Schedule.delta;
            seed = Int64.to_int sched.Schedule.seed;
            verbose;
          })
  in
  Proxy.set_backends proxy
    (Array.map (fun r -> ("127.0.0.1", Smr.Replica.port r)) replicas);
  Proxy.start_clock proxy;
  let wall_t0 = Netio.wall () in
  let proxy_thread = Thread.create Proxy.run proxy in
  let replica_threads =
    Array.map (fun r -> Thread.create Smr.Replica.run r) replicas
  in
  let stop () =
    Array.iter Smr.Replica.stop replicas;
    Array.iter Thread.join replica_threads;
    Proxy.stop proxy;
    Thread.join proxy_thread;
    Proxy.shutdown proxy
  in
  { proxy; registry; replicas; fronts; wall_t0; stop }

let run_in_process cfg =
  let n = cfg.schedule.Schedule.n in
  let { registry = reg; replicas; fronts; wall_t0; stop = finish; _ } =
    start_in_process ~verbose:cfg.verbose cfg.schedule
  in
  let outcome_report = run_client cfg fronts in
  let checks = ref (base_checks cfg outcome_report) in
  let add c = checks := !checks @ [ c ] in
  let recovery = ref None in
  (match outcome_report with
  | Error _ -> ()
  | Ok report ->
      let tail =
        settle_tail cfg fronts ~settled:(settled_point cfg ~wall_t0)
      in
      let settled = quiesce_replicas replicas in
      let sums = Array.map Smr.Replica.kv_checksum replicas in
      let agree = Array.for_all (fun s -> s = sums.(0)) sums in
      add
        {
          name = "agreement";
          ok = settled && agree;
          detail =
            (if not settled then "replicas did not quiesce"
             else
               Printf.sprintf "all %d replicas at checksum %d (%d applied)" n
                 sums.(0)
                 (Smr.Replica.kv_applied replicas.(0)));
        };
      let bad =
        List.filter
          (fun i ->
            let key = "u" ^ string_of_int i in
            let want = expected_value ~value_bytes:cfg.value_bytes i in
            Array.exists
              (fun r -> Smr.Replica.kv_get r key <> Some want)
              replicas)
          (sample_indices cfg.commands)
      in
      add
        {
          name = "exactly-once effects";
          ok = bad = [];
          detail =
            (match bad with
            | [] ->
                Printf.sprintf "%d sampled keys correct on every replica"
                  (List.length (sample_indices cfg.commands))
            | i :: _ ->
                Printf.sprintf "key u%d wrong or missing on some replica" i);
        };
      let v = recovery_check cfg ~wall_t0 ~tail report in
      recovery := Some v;
      add (recovery_to_check v));
  finish ();
  {
    checks = !checks;
    report = Result.to_option outcome_report;
    recovery = !recovery;
    registry = reg;
  }

(* ------------------------------------------------------------------ *)
(* Subprocess mode                                                     *)
(* ------------------------------------------------------------------ *)

let reserve_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  Unix.close fd;
  port

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* pull "<token>=<int>" out of a replica's shutdown line *)
let parse_tagged log token =
  let tag = token ^ "=" in
  let rec find from =
    match String.index_from_opt log from tag.[0] with
    | None -> None
    | Some i ->
        if
          i + String.length tag <= String.length log
          && String.sub log i (String.length tag) = tag
        then
          let start = i + String.length tag in
          let finish = ref start in
          while
            !finish < String.length log
            &&
            match log.[!finish] with '0' .. '9' | '-' -> true | _ -> false
          do
            incr finish
          done;
          if !finish > start then
            int_of_string_opt (String.sub log start (!finish - start))
          else find (i + 1)
        else find (i + 1)
  in
  find 0

let terminate_and_reap pids =
  Array.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  Array.iter
    (fun pid ->
      let rec wait tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if tries > 100 then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end
            else begin
              Thread.delay 0.05;
              wait (tries + 1)
            end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      wait 0)
    pids

let run_subprocess cfg ~argv ~dir =
  let sched = cfg.schedule in
  let n = sched.Schedule.n in
  let reg = Sim.Registry.create () in
  let backend_ports = Array.init n (fun _ -> reserve_port ()) in
  let proxy = Proxy.create ~schedule:sched ~registry:reg () in
  let fronts = Proxy.fronts proxy in
  Proxy.set_backends proxy
    (Array.map (fun p -> ("127.0.0.1", p)) backend_ports);
  let cluster_str =
    String.concat ","
      (List.map
         (fun (h, p) -> Printf.sprintf "%s:%d" h p)
         (Array.to_list fronts))
  in
  let logs = Array.init n (fun i -> Filename.concat dir (Printf.sprintf "r%d.log" i)) in
  let pids =
    Array.init n (fun i ->
        let av =
          argv ~id:i ~cluster:cluster_str
            ~bind:(Printf.sprintf "127.0.0.1:%d" backend_ports.(i))
            ~snapshot:(Filename.concat dir (Printf.sprintf "r%d.snap" i))
        in
        let out =
          Unix.openfile logs.(i)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        let pid = Unix.create_process av.(0) av Unix.stdin out out in
        Unix.close out;
        pid)
  in
  (* let the processes boot and mesh up before the adversary's clock
     starts ticking *)
  Thread.delay 0.4;
  Proxy.start_clock proxy;
  let wall_t0 = Netio.wall () in
  let proxy_thread = Thread.create Proxy.run proxy in
  let outcome_report = run_client cfg fronts in
  let checks = ref (base_checks cfg outcome_report) in
  let add c = checks := !checks @ [ c ] in
  let recovery = ref None in
  (match outcome_report with
  | Error _ -> ()
  | Ok report ->
      let tail =
        settle_tail cfg fronts ~settled:(settled_point cfg ~wall_t0)
      in
      (* spot-check effects through the cluster while it is still up *)
      let bad = ref [] in
      (try
         let c = Smr.Client.connect fronts in
         List.iter
           (fun i ->
             let key = "u" ^ string_of_int i in
             let want = expected_value ~value_bytes:cfg.value_bytes i in
             match Smr.Client.get c key with
             | Smr.Wire.R_value (Some v) when v = want -> ()
             | _ -> bad := i :: !bad)
           (sample_indices cfg.commands);
         Smr.Client.close c
       with Smr.Client.Disconnected _ -> bad := [ -1 ]);
      add
        {
          name = "exactly-once effects";
          ok = !bad = [];
          detail =
            (match !bad with
            | [] ->
                Printf.sprintf "%d sampled keys correct"
                  (List.length (sample_indices cfg.commands))
            | -1 :: _ -> "probe client could not connect"
            | i :: _ -> Printf.sprintf "key u%d wrong or missing" i);
        };
      let v = recovery_check cfg ~wall_t0 ~tail report in
      recovery := Some v;
      add (recovery_to_check v));
  (* settle, then collect each process's final KV signature from its
     shutdown line *)
  Thread.delay 0.3;
  terminate_and_reap pids;
  Proxy.stop proxy;
  Thread.join proxy_thread;
  Proxy.shutdown proxy;
  (match outcome_report with
  | Error _ -> ()
  | Ok _ ->
      let sigs =
        Array.map
          (fun log ->
            let s = read_file log in
            (parse_tagged s "kv_checksum", parse_tagged s "kv_applied"))
          logs
      in
      let all_parsed =
        Array.for_all (function Some _, Some _ -> true | _ -> false) sigs
      in
      let agree =
        all_parsed && Array.for_all (fun s -> s = sigs.(0)) sigs
      in
      checks :=
        !checks
        @ [
            {
              name = "agreement";
              ok = agree;
              detail =
                (if not all_parsed then
                   "missing kv_checksum in a replica shutdown line"
                 else if agree then
                   Printf.sprintf "all %d replicas at checksum %s" n
                     (match sigs.(0) with
                     | Some c, _ -> string_of_int c
                     | None, _ -> "?")
                 else "replica checksums diverge");
            };
          ]);
  {
    checks = !checks;
    report = Result.to_option outcome_report;
    recovery = !recovery;
    registry = reg;
  }

let run cfg =
  if cfg.commands < 1 || cfg.pipeline < 1 then
    invalid_arg "Campaign.run: commands and pipeline must be >= 1";
  match cfg.mode with
  | In_process -> run_in_process cfg
  | Subprocess { argv; dir } -> run_subprocess cfg ~argv ~dir
