(* Chaos layer: deterministic schedules, the frame-aware proxy over a
   live loopback cluster, and the campaign's robustness contract.
   Socket timing is inherently noisy, so liveness checks get generous
   margins; determinism checks are exact. *)

module Netio = Realtime.Netio

let localhost = "127.0.0.1"

(* ---- schedules ---------------------------------------------------- *)

let gen seed =
  Chaos.Schedule.generate ~seed ~n:3 ~ts:0.5 ~delta:0.02 ~horizon:2.5 ()

let test_generation_deterministic () =
  let print s = Sim.Json.print (Chaos.Schedule.to_json s) in
  Alcotest.(check string)
    "same seed, byte-identical schedule" (print (gen 42L)) (print (gen 42L));
  Alcotest.(check bool)
    "different seeds differ" false
    (print (gen 42L) = print (gen 43L))

let test_json_round_trip () =
  let s = gen 9L in
  (match Chaos.Schedule.of_json (Chaos.Schedule.to_json s) with
  | Ok s' ->
      Alcotest.(check bool) "round-trips to an equal schedule" true
        (Chaos.Schedule.equal s s')
  | Error m -> Alcotest.fail ("round trip failed: " ^ m));
  match Chaos.Schedule.of_json (Sim.Json.Obj [ ("format", Sim.Json.Str "nope") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong format tag must be rejected"

let test_validate_rejects_model_violations () =
  let base = { (gen 1L) with Chaos.Schedule.actions = [] } in
  let rejected actions =
    match
      Chaos.Schedule.validate { base with Chaos.Schedule.actions }
    with
    | Error _ -> true
    | Ok () -> false
  in
  Alcotest.(check bool) "cut crossing ts" true
    (rejected
       [ Chaos.Schedule.Cut { src = 0; dst = 1; from_ = 0.1; until = 1.0 } ]);
  Alcotest.(check bool) "post-ts delay above delta" true
    (rejected
       [
         Chaos.Schedule.Delay { from_ = 0.5; until = 1.0; max_delay = 0.5 };
       ]);
  Alcotest.(check bool) "reset after ts" true
    (rejected [ Chaos.Schedule.Reset { dst = 0; at = 0.9 } ]);
  Alcotest.(check bool) "overlapping partition groups" true
    (rejected
       [
         Chaos.Schedule.Partition
           { groups = [ [ 0; 1 ]; [ 1; 2 ] ]; from_ = 0.0; until = 0.2 };
       ]);
  Alcotest.(check bool) "probability out of range" true
    (rejected
       [
         Chaos.Schedule.Corrupt
           { src = 0; dst = 1; from_ = 0.0; until = 0.2; prob = 1.5 };
       ]);
  Alcotest.(check bool) "a pre-ts disruption is fine" false
    (rejected
       [ Chaos.Schedule.Cut { src = 0; dst = 1; from_ = 0.0; until = 0.4 } ])

(* ---- client backoff curve ----------------------------------------- *)

let test_backoff_delay_curve () =
  let check_f = Alcotest.(check (float 1e-9)) in
  check_f "round 0, low jitter" 0.0375
    (Smr.Client.backoff_delay ~round:0 0.0);
  check_f "round 2 doubles twice" 0.15 (Smr.Client.backoff_delay ~round:2 0.0);
  check_f "cap binds" 0.75 (Smr.Client.backoff_delay ~round:10 0.0);
  Alcotest.(check bool) "jitter stays under cap * 1.25" true
    (Smr.Client.backoff_delay ~round:10 0.999 < 1.25);
  Alcotest.(check bool) "monotone in round until the cap" true
    (Smr.Client.backoff_delay ~round:1 0.5
    < Smr.Client.backoff_delay ~round:3 0.5);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative round rejected" true
    (raises (fun () -> Smr.Client.backoff_delay ~round:(-1) 0.0));
  Alcotest.(check bool) "jitter >= 1 rejected" true
    (raises (fun () -> Smr.Client.backoff_delay ~round:0 1.0))

(* ---- netio hardening ---------------------------------------------- *)

(* run [t]'s loop inline until [pred] or the deadline; returns [pred]'s
   final value *)
let step_until t pred =
  let deadline = Netio.wall () +. 5.0 in
  let rec go () =
    if pred () then true
    else if Netio.wall () >= deadline then pred ()
    else begin
      Netio.step t 0.02;
      go ()
    end
  in
  go ()

let test_netio_partial_timeout () =
  let t = Netio.create () in
  let reg = Sim.Registry.create () in
  Netio.set_registry t reg;
  Netio.set_limits t ~partial_timeout:0.05 ();
  let port =
    Netio.listen t ~host:localhost ~port:0 ~on_accept:(fun c ->
        (* never consume: unconsumed partial input must age out *)
        Netio.set_callbacks c ~on_data:(fun _ -> ()) ~on_close:(fun _ -> ()))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Netio.resolve localhost, port));
  (* 5 bytes of a 12-byte header, then silence *)
  ignore (Unix.write sock (Bytes.of_string "ES\x01\x00\x00") 0 5);
  let dropped () = Sim.Registry.counter_total reg "netio_partial_timeouts" > 0 in
  Alcotest.(check bool) "stalled partial frame dropped" true
    (step_until t dropped);
  Unix.close sock;
  Netio.shutdown t

let test_netio_input_overflow () =
  let t = Netio.create () in
  let reg = Sim.Registry.create () in
  Netio.set_registry t reg;
  Netio.set_limits t ~max_input:64 ();
  let port =
    Netio.listen t ~host:localhost ~port:0 ~on_accept:(fun c ->
        Netio.set_callbacks c ~on_data:(fun _ -> ()) ~on_close:(fun _ -> ()))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Netio.resolve localhost, port));
  ignore (Unix.write sock (Bytes.make 1024 'x') 0 1024);
  let dropped () = Sim.Registry.counter_total reg "netio_input_overflows" > 0 in
  Alcotest.(check bool) "unbounded inbound buffer dropped" true
    (step_until t dropped);
  Unix.close sock;
  Netio.shutdown t

let test_netio_accept_backoff () =
  let t = Netio.create () in
  let reg = Sim.Registry.create () in
  Netio.set_registry t reg;
  ignore
    (Netio.listen t ~host:localhost ~port:0 ~on_accept:(fun _ ->
         Alcotest.fail "sabotaged listener must not accept"));
  Netio.Private.sabotage_listeners t;
  let backed_off () =
    Sim.Registry.counter_total reg "netio_accept_backoffs" > 0
  in
  Alcotest.(check bool) "persistent accept failure backs off" true
    (step_until t backed_off);
  Alcotest.(check int) "listener is inside its pause window" 1
    (Netio.Private.paused_listeners t);
  (* while paused the loop must keep stepping without spinning on the
     poisoned fd: counters stay put *)
  let before = Sim.Registry.counter_total reg "netio_accept_backoffs" in
  Netio.step t 0.01;
  Netio.step t 0.01;
  Alcotest.(check int) "no accept attempts while paused" before
    (Sim.Registry.counter_total reg "netio_accept_backoffs");
  Netio.shutdown t

(* ---- netio output coalescing -------------------------------------- *)

(* A Netio connection writing to a plain blocking socket the test reads
   by hand, so the reader's pace is under the test's control. *)
let raw_pair t =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Netio.resolve localhost, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "listener has no port"
  in
  let c = Netio.connect t ~host:localhost ~port in
  let reader, _ = Unix.accept lsock in
  Unix.close lsock;
  Unix.setsockopt_float reader Unix.SO_RCVTIMEO 5.0;
  (c, reader)

(* read exactly [n] bytes from the blocking reader, stepping [t] between
   reads of at most [chunk] bytes so the writer resumes partial writes *)
let read_exactly t reader ~chunk n =
  let out = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    Netio.step t 0.;
    match Unix.read reader out !got (Stdlib.min chunk (n - !got)) with
    | 0 -> Alcotest.failf "reader saw EOF after %d of %d bytes" !got n
    | k -> got := !got + k
  done;
  out

(* k distinct frames: frame i is [len] copies of byte (i mod 251) *)
let frames ~k ~len =
  Array.init k (fun i -> Bytes.make len (Char.chr (i mod 251)))

let test_netio_one_write_per_flush () =
  let t = Netio.create () in
  let c, reader = raw_pair t in
  (* the marker proves the nonblocking connect completed *)
  Netio.send t c (Bytes.of_string "!");
  Alcotest.(check string) "marker" "!"
    (Bytes.to_string (read_exactly t reader ~chunk:1 1));
  let fs = frames ~k:50 ~len:40 in
  let before = Netio.Private.writes t in
  Array.iter (Netio.enqueue c) fs;
  Alcotest.(check int) "enqueue writes nothing" before
    (Netio.Private.writes t);
  Netio.flush t c;
  let got = read_exactly t reader ~chunk:65536 (50 * 40) in
  Alcotest.(check bool) "bytes arrive in order" true
    (Bytes.equal got (Bytes.concat Bytes.empty (Array.to_list fs)));
  Alcotest.(check int) "50 frames, one flush: one write" (before + 1)
    (Netio.Private.writes t);
  Netio.flush t c;
  Alcotest.(check int) "flushing an empty queue writes nothing" (before + 1)
    (Netio.Private.writes t);
  Unix.close reader;
  Netio.shutdown t

(* [enqueue_sub] queues exactly the named range of a buffer the caller
   then reuses, as a replica does with its one frame buffer: each range
   is copied at enqueue time, so overwriting the buffer afterwards
   changes nothing that was queued. *)
let test_netio_enqueue_sub () =
  let t = Netio.create () in
  let c, reader = raw_pair t in
  Netio.send t c (Bytes.of_string "!");
  ignore (read_exactly t reader ~chunk:1 1);
  let scratch = Bytes.make 64 '.' in
  let expect = Buffer.create 256 in
  let before = Netio.Private.writes t in
  for i = 0 to 9 do
    let off = i mod 5 and len = 3 + i in
    Bytes.fill scratch 0 64 (Char.chr (0x41 + i));
    Netio.enqueue_sub c scratch off len;
    Buffer.add_string expect (String.make len (Char.chr (0x41 + i)))
  done;
  Bytes.fill scratch 0 64 '#';
  (match Netio.enqueue_sub c scratch 60 5 with
  | () -> Alcotest.fail "a range past the end was queued"
  | exception Invalid_argument _ -> ());
  (match Netio.enqueue_sub c scratch (-1) 2 with
  | () -> Alcotest.fail "a negative offset was queued"
  | exception Invalid_argument _ -> ());
  Netio.enqueue_sub c scratch 64 0;
  Alcotest.(check int) "enqueue_sub writes nothing" before
    (Netio.Private.writes t);
  Netio.flush t c;
  let n = Buffer.length expect in
  Alcotest.(check string) "exactly the queued ranges, in order"
    (Buffer.contents expect)
    (Bytes.to_string (read_exactly t reader ~chunk:65536 n));
  Alcotest.(check int) "ten ranges, one flush: one write" (before + 1)
    (Netio.Private.writes t);
  Unix.close reader;
  Netio.shutdown t

let test_netio_partial_writes_resume () =
  let t = Netio.create () in
  let c, reader = raw_pair t in
  (* 6 MiB in 1 KiB frames: far past the socket buffers, so the flush
     is short and the loop has to finish it across many passes *)
  let fs = frames ~k:6144 ~len:1024 in
  Array.iter (Netio.enqueue c) fs;
  Alcotest.(check bool) "region grew to hold the burst" true
    (Netio.Private.out_capacity c >= 6144 * 1024);
  Netio.flush t c;
  let got = read_exactly t reader ~chunk:16384 (6144 * 1024) in
  Alcotest.(check bool) "burst arrives byte-identical and in order" true
    (Bytes.equal got (Bytes.concat Bytes.empty (Array.to_list fs)));
  Alcotest.(check bool) "the burst took several writes" true
    (Netio.Private.writes t > 1);
  Alcotest.(check int) "drained region shrank back" 4096
    (Netio.Private.out_capacity c);
  Unix.close reader;
  Netio.shutdown t

let test_netio_close_drops_output () =
  let t = Netio.create () in
  let c, reader = raw_pair t in
  let closed = ref false in
  Netio.set_callbacks c ~on_data:(fun _ -> ()) ~on_close:(fun _ -> closed := true);
  Netio.send t c (Bytes.of_string "!");
  ignore (read_exactly t reader ~chunk:1 1);
  let writes = Netio.Private.writes t in
  Netio.enqueue c (Bytes.make 1000 'q');
  Netio.close t c;
  Alcotest.(check bool) "on_close fired" true !closed;
  Netio.enqueue c (Bytes.make 10 'z');
  Netio.flush t c;
  Netio.step t 0.;
  Alcotest.(check int) "queued output never written" writes
    (Netio.Private.writes t);
  Alcotest.(check int) "reader sees EOF, no bytes" 0
    (Unix.read reader (Bytes.create 16) 0 16);
  Unix.close reader;
  Netio.shutdown t

(* ---- proxy over a live cluster ------------------------------------ *)

let empty_schedule =
  {
    Chaos.Schedule.name = "empty";
    seed = 5L;
    n = 3;
    ts = 0.1;
    delta = 0.02;
    horizon = 0.1;
    actions = [];
  }

let wait_converged replicas =
  let deadline = Netio.wall () +. 10. in
  let converged () =
    let sigs =
      Array.map
        (fun r -> (Smr.Replica.chosen_count r, Smr.Replica.kv_checksum r))
        replicas
    in
    Array.for_all (fun s -> s = sigs.(0)) sigs
  in
  while (not (converged ())) && Netio.wall () < deadline do
    Thread.delay 0.05
  done;
  converged ()

let test_proxy_transparent () =
  let { Chaos.Campaign.registry = reg; replicas; fronts; stop; _ } =
    Chaos.Campaign.start_in_process empty_schedule
  in
  Fun.protect ~finally:stop (fun () ->
      let c = Smr.Client.connect fronts in
      Fun.protect
        ~finally:(fun () -> Smr.Client.close c)
        (fun () ->
          (match Smr.Client.put c ~key:"a" ~value:"1" with
          | Smr.Wire.R_stored -> ()
          | _ -> Alcotest.fail "put through the proxy should succeed");
          match Smr.Client.get c "a" with
          | Smr.Wire.R_value (Some "1") -> ()
          | _ -> Alcotest.fail "get through the proxy should see the put");
      Alcotest.(check bool) "replicas converged" true
        (wait_converged replicas);
      Alcotest.(check int) "frames flowed through the proxy" 0
        (if Sim.Registry.counter_total reg "chaos_frames" > 0 then 0 else 1);
      List.iter
        (fun name ->
          Alcotest.(check int)
            (name ^ " untouched by an empty schedule")
            0
            (Sim.Registry.counter_total reg name))
        [
          "chaos_dropped";
          "chaos_delayed";
          "chaos_duplicated";
          "chaos_reordered";
          "chaos_corrupted";
          "chaos_truncated";
          "chaos_resets";
          "chaos_bad_frames";
        ])

let test_corruption_teardown_and_recovery () =
  (* every frame replica 0 sends replica 1 is corrupted for 0.3 s: the
     receiver's CRC check must tear the connection down cleanly, the
     mesh must keep deciding through the third replica, and once the
     window closes the link heals and the cluster converges *)
  let schedule =
    {
      Chaos.Schedule.name = "corrupt-link";
      seed = 11L;
      n = 3;
      ts = 0.3;
      delta = 0.02;
      horizon = 0.3;
      actions =
        [
          Chaos.Schedule.Corrupt
            { src = 0; dst = 1; from_ = 0.0; until = 0.3; prob = 1.0 };
        ];
    }
  in
  let { Chaos.Campaign.registry = reg; replicas; fronts; stop; _ } =
    Chaos.Campaign.start_in_process schedule
  in
  Fun.protect ~finally:stop (fun () ->
      let c = Smr.Client.connect ~prefer:0 fronts in
      let report =
        Fun.protect
          ~finally:(fun () -> Smr.Client.close c)
          (fun () ->
            Smr.Client.run_load ~timeout:0.5 c
              {
                Smr.Client.default_load with
                commands = 1_000;
                pipeline = 32;
                seed = 3;
              })
      in
      Alcotest.(check int) "all commands completed through the fault" 1_000
        report.Smr.Client.completed;
      Alcotest.(check bool) "proxy corrupted frames" true
        (Sim.Registry.counter_total reg "chaos_corrupted" > 0);
      let bad_frames =
        Array.fold_left
          (fun acc r ->
            acc
            + Sim.Registry.counter_total (Smr.Replica.registry r)
                "serve_bad_frames")
          0 replicas
      in
      Alcotest.(check bool) "a replica saw and dropped corrupt frames" true
        (bad_frames > 0);
      Alcotest.(check bool) "cluster converged after the window" true
        (wait_converged replicas);
      let sums = Array.map Smr.Replica.kv_checksum replicas in
      Array.iter
        (fun s ->
          Alcotest.(check bool) "replica checksums agree" true (s = sums.(0)))
        sums)

(* ---- the campaign end to end -------------------------------------- *)

let test_mini_campaign () =
  let schedule =
    Chaos.Schedule.generate ~seed:3L ~n:3 ~ts:0.4 ~delta:0.02 ~horizon:1.6 ()
  in
  let outcome =
    Chaos.Campaign.run
      {
        (Chaos.Campaign.default_config schedule) with
        Chaos.Campaign.commands = 1_500;
        pipeline = 32;
      }
  in
  Alcotest.(check bool)
    (Format.asprintf "campaign contract holds: %a" Chaos.Campaign.pp_outcome
       outcome)
    true
    (Chaos.Campaign.ok outcome);
  Alcotest.(check bool) "campaign produced a client report" true
    (outcome.Chaos.Campaign.report <> None);
  match outcome.Chaos.Campaign.recovery with
  | None -> Alcotest.fail "campaign produced no recovery verdict"
  | Some v ->
      Alcotest.(check bool) "post-settle samples exist" true
        (v.Smr.Recovery.post > 0)

(* ---- recovery verdict unit behaviour ------------------------------ *)

let test_recovery_check () =
  let bound = 0.1 in
  (* slack = max 1.0 bound = 1.0, settled = 0.5 + 1.1 = 1.6 *)
  let good =
    List.init 40 (fun i -> (0.1 *. float_of_int i, 0.01))
  in
  let v = Smr.Recovery.check ~bound ~after:0.5 good in
  Alcotest.(check bool)
    (Format.asprintf "steady trace passes: %a" Smr.Recovery.pp v)
    true (Smr.Recovery.ok v);
  let no_post = [ (0.1, 0.01); (0.2, 0.01) ] in
  Alcotest.(check bool) "trace ending before the settle point fails" false
    (Smr.Recovery.ok (Smr.Recovery.check ~bound ~after:0.5 no_post));
  let slow_post = good @ [ (6.0, 0.01) ] in
  Alcotest.(check bool) "post-settle stall fails" false
    (Smr.Recovery.ok (Smr.Recovery.check ~bound ~after:0.5 slow_post));
  let laggy = good @ [ (4.05, 3.0) ] in
  Alcotest.(check bool) "post-settle latency above the bound fails" false
    (Smr.Recovery.ok (Smr.Recovery.check ~bound ~after:0.5 laggy))

let suite =
  [
    Alcotest.test_case "schedule generation is deterministic" `Quick
      test_generation_deterministic;
    Alcotest.test_case "schedule JSON round-trips" `Quick test_json_round_trip;
    Alcotest.test_case "validate rejects model-shape violations" `Quick
      test_validate_rejects_model_violations;
    Alcotest.test_case "client backoff delay curve" `Quick
      test_backoff_delay_curve;
    Alcotest.test_case "netio drops stalled partial frames" `Quick
      test_netio_partial_timeout;
    Alcotest.test_case "netio bounds the inbound buffer" `Quick
      test_netio_input_overflow;
    Alcotest.test_case "netio backs off a failing accept" `Quick
      test_netio_accept_backoff;
    Alcotest.test_case "netio: one write per flush" `Quick
      test_netio_one_write_per_flush;
    Alcotest.test_case "netio: enqueue_sub queues a range" `Quick
      test_netio_enqueue_sub;
    Alcotest.test_case "netio: partial writes resume intact" `Quick
      test_netio_partial_writes_resume;
    Alcotest.test_case "netio: close drops queued output" `Quick
      test_netio_close_drops_output;
    Alcotest.test_case "recovery verdicts" `Quick test_recovery_check;
    Alcotest.test_case "empty schedule is transparent" `Slow
      test_proxy_transparent;
    Alcotest.test_case "corruption tears down and the link heals" `Slow
      test_corruption_teardown_and_recovery;
    Alcotest.test_case "mini campaign holds the contract" `Slow
      test_mini_campaign;
  ]
