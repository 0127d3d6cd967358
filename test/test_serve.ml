(* Single-process loopback cluster: three replicas on 127.0.0.1 with
   port 0 (no free-port assumptions), each run on its own thread, driven
   by the blocking client.  Exercises the whole socket stack — framing,
   peer mesh, batching/pipelining, KV semantics, replication. *)

open Smr

let localhost = "127.0.0.1"

let delta = 0.02

let start_cluster ?(batch = 16) ?(window = 16) n =
  let cluster = Array.make n (localhost, 0) in
  let replicas =
    Array.init n (fun id ->
        Replica.create
          {
            (Replica.default_config ~id ~cluster) with
            delta;
            batch;
            window;
            seed = 7;
          })
  in
  let ports = Array.map Replica.port replicas in
  Array.iter (fun r -> Replica.set_peer_ports r ports) replicas;
  let threads =
    Array.map (fun r -> Thread.create (fun () -> Replica.run r) ()) replicas
  in
  (replicas, ports, threads)

let stop_cluster replicas threads =
  Array.iter Replica.stop replicas;
  Array.iter Thread.join threads

let endpoints ports = Array.map (fun p -> (localhost, p)) ports

let test_kv_semantics () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.get c "missing" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "get of a missing key should be absent");
          (match Client.put c ~key:"a" ~value:"1" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put should be acknowledged");
          (match Client.get c "a" with
          | Wire.R_value (Some "1") -> ()
          | _ -> Alcotest.fail "get should see the put");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"2" with
          | Wire.R_cas { ok = true; _ } -> ()
          | _ -> Alcotest.fail "matching cas should succeed");
          (match Client.cas c ~key:"a" ~expect:(Some "1") ~set:"3" with
          | Wire.R_cas { ok = false; actual = Some "2" } -> ()
          | _ -> Alcotest.fail "stale cas should fail with the live value");
          match Client.get c "a" with
          | Wire.R_value (Some "2") -> ()
          | _ -> Alcotest.fail "failed cas must not write"))

let test_pipelined_load_replicates () =
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 2_000;
                pipeline = 32;
                seed = 11;
              })
      in
      Alcotest.(check int) "all commands completed" 2_000
        report.Client.completed;
      Alcotest.(check bool) "made progress" true
        (report.Client.throughput > 0.);
      (* replication: every replica converges to the same chosen count *)
      let deadline = Unix.gettimeofday () +. 10. in
      let converged () =
        let counts = Array.map Replica.chosen_count replicas in
        Array.for_all (fun c -> c = counts.(0) && c > 0) counts
      in
      while (not (converged ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "replicas converged on the chosen log" true
        (converged ()))

let test_client_batch_rejected () =
  (* the batch opcode is replica-internal (WIRE.md §5): a well-formed
     client batch request must be answered with an error reply, not
     admitted into the backlog — where the replica's own folding would
     nest it and crash the process (regression: REVIEW finding) *)
  let replicas, ports, threads = start_cluster 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let batch =
            Command.Batch
              [
                Command.make ~id:1
                  (Command.Kv_put { key = "sneaky"; value = "1" });
                Command.make ~id:2
                  (Command.Kv_put { key = "sneakier"; value = "2" });
              ]
          in
          (* two in a row so a folded backlog of >= 2 would have nested *)
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (match Client.request c batch with
          | Wire.R_error _ -> ()
          | _ -> Alcotest.fail "client batch should be rejected");
          (* the connection and the replica both survived the rejection *)
          (match Client.put c ~key:"after" ~value:"ok" with
          | Wire.R_stored -> ()
          | _ -> Alcotest.fail "put after rejected batch should succeed");
          (match Client.get c "after" with
          | Wire.R_value (Some "ok") -> ()
          | _ -> Alcotest.fail "get after rejected batch should succeed");
          match Client.get c "sneaky" with
          | Wire.R_value None -> ()
          | _ -> Alcotest.fail "rejected batch must not have been applied"))

let test_batching_counts () =
  (* with batch >> pipeline disabled (batch=1) every command is its own
     decree; with batching on, decrees are far fewer than commands *)
  let replicas, ports, threads = start_cluster ~batch:32 ~window:8 3 in
  Fun.protect
    ~finally:(fun () -> stop_cluster replicas threads)
    (fun () ->
      let c = Client.connect (endpoints ports) in
      let report =
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.run_load c
              {
                Client.default_load with
                commands = 1_000;
                pipeline = 64;
                seed = 5;
              })
      in
      Alcotest.(check int) "all commands completed" 1_000
        report.Client.completed;
      let batches =
        Array.fold_left
          (fun acc r ->
            acc
            + Sim.Registry.counter_total (Replica.registry r) "serve_batches")
          0 replicas
      in
      Alcotest.(check bool)
        (Printf.sprintf "batching folds commands into decrees (%d batches)"
           batches)
        true
        (batches > 0 && batches < 1_000))

(* A snapshot that exists but does not decode must stop the boot: a
   member that came up empty instead would forget the promises and
   votes it recorded.  Only an absent file means a fresh member; the
   same holds for the boot count kept beside the snapshot. *)
let test_corrupt_snapshot_refused () =
  let path = Filename.temp_file "replica" ".snap" in
  Sys.remove path;
  let boot () =
    let r =
      Replica.create
        {
          (Replica.default_config ~id:0 ~cluster:[| (localhost, 0) |]) with
          delta;
          snapshot = Some path;
        }
    in
    (* stopped up front, [run] boots (or restores), skips the event
       loop and writes its final snapshot *)
    Replica.stop r;
    Replica.run r;
    Sim.Registry.counter_total (Replica.registry r) "serve_restores"
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ path; path ^ ".incarnation" ])
    (fun () ->
      Alcotest.(check int) "an absent snapshot boots fresh" 0 (boot ());
      let snap =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      Alcotest.(check int) "an intact snapshot restores" 1 (boot ());
      let sidecar = path ^ ".incarnation" in
      let write_sidecar s =
        Out_channel.with_open_bin sidecar (fun oc ->
            Out_channel.output_string oc s)
      in
      Alcotest.(check string) "each boot bumps the boot count" "1\n"
        (In_channel.with_open_bin sidecar In_channel.input_all);
      write_sidecar "one\n";
      (match boot () with
      | _ -> Alcotest.fail "booted with an unreadable boot count"
      | exception Replica.Bad_snapshot msg ->
          Alcotest.(check bool)
            ("the error names the sidecar: " ^ msg)
            true
            (String.starts_with ~prefix:(sidecar ^ ": ") msg));
      write_sidecar "1\n";
      let i = Wire.header_len in
      Bytes.set snap i (Char.chr (Char.code (Bytes.get snap i) lxor 0x01));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc snap);
      match boot () with
      | _ -> Alcotest.fail "booted from a snapshot with a flipped payload byte"
      | exception Replica.Bad_snapshot msg ->
          Alcotest.(check bool)
            ("the error names the file and the CRC: " ^ msg)
            true
            (String.starts_with ~prefix:path msg
            && String.ends_with ~suffix:"payload CRC mismatch" msg))

(* Member 2 boots late, after members 0 and 1 have committed frames of
   every size class: short ones, 1 KiB puts, and one put larger than
   the frame buffer a replica keeps between passes.  Once member 2 has
   caught up, it holds the large value intact and no member has dropped
   a connection over a frame that failed to decode. *)
let test_late_member_no_bad_frames () =
  let n = 3 in
  let cluster = Array.make n (localhost, 0) in
  let replicas =
    Array.init n (fun id ->
        Replica.create
          { (Replica.default_config ~id ~cluster) with delta; seed = 7 })
  in
  let ports = Array.map Replica.port replicas in
  Array.iter (fun r -> Replica.set_peer_ports r ports) replicas;
  let threads = Array.make n None in
  let start i =
    threads.(i) <- Some (Thread.create (fun () -> Replica.run replicas.(i)) ())
  in
  let big = String.init 200_000 (fun i -> Char.chr (i mod 251)) in
  let put c key value =
    match Client.put c ~key ~value with
    | Wire.R_stored -> ()
    | _ -> Alcotest.failf "put %s was not acknowledged" key
  in
  start 0;
  start 1;
  Fun.protect
    ~finally:(fun () ->
      Array.iter Replica.stop replicas;
      Array.iter (Option.iter Thread.join) threads)
    (fun () ->
      (* the client never dials member 2, which is not serving yet *)
      let c = Client.connect (endpoints (Array.sub ports 0 2)) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          put c "short" "v";
          for i = 0 to 19 do
            put c (Printf.sprintf "k%d" i) (String.make 1024 (Char.chr (65 + i)))
          done;
          put c "big" big;
          start 2;
          for i = 20 to 39 do
            put c (Printf.sprintf "k%d" i) (String.make 1024 (Char.chr (65 + i)))
          done);
      let deadline = Unix.gettimeofday () +. 10. in
      let caught_up () =
        let counts = Array.map Replica.chosen_count replicas in
        Array.for_all (fun c -> c = counts.(0)) counts
        && Replica.kv_get replicas.(2) "k39" <> None
      in
      while (not (caught_up ())) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05
      done;
      Alcotest.(check bool) "member 2 caught up" true (caught_up ());
      Alcotest.(check bool) "member 2 holds the large value intact" true
        (Replica.kv_get replicas.(2) "big" = Some big);
      Array.iteri
        (fun i r ->
          Alcotest.(check int)
            (Printf.sprintf "member %d dropped no bad frames" i)
            0
            (Sim.Registry.counter_total (Replica.registry r) "serve_bad_frames"))
        replicas)

(* A durable member that served clients is stopped and restarted from
   its snapshot.  The ids it stamps after the restart must be new:
   reusing one already in the chosen log would drop the command as a
   duplicate decree, or answer it with the earlier command's reply. *)
let test_restart_stamps_fresh_ids () =
  let n = 3 in
  let paths =
    Array.init n (fun _ ->
        let p = Filename.temp_file "replica" ".snap" in
        Sys.remove p;
        p)
  in
  let make ~cluster id =
    Replica.create
      {
        (Replica.default_config ~id ~cluster) with
        delta;
        seed = 7;
        snapshot = Some paths.(id);
      }
  in
  let replicas = Array.init n (make ~cluster:(Array.make n (localhost, 0))) in
  let ports = Array.map Replica.port replicas in
  Array.iter (fun r -> Replica.set_peer_ports r ports) replicas;
  let start r = Thread.create (fun () -> Replica.run r) () in
  let threads = Array.map start replicas in
  let show reply = Wire.info (Wire.Response { seq = 0; reply }) in
  let with_member0 f =
    let c = Client.connect [| (localhost, ports.(0)) |] in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  Fun.protect
    ~finally:(fun () ->
      stop_cluster replicas threads;
      Array.iter
        (fun p ->
          List.iter
            (fun f -> if Sys.file_exists f then Sys.remove f)
            [ p; p ^ ".incarnation" ])
        paths)
    (fun () ->
      with_member0 (fun c ->
          for i = 0 to 4 do
            match Client.put c ~key:(Printf.sprintf "k%d" i) ~value:"old" with
            | Wire.R_stored -> ()
            | _ -> Alcotest.failf "put k%d was not acknowledged" i
          done);
      Replica.stop replicas.(0);
      Thread.join threads.(0);
      replicas.(0) <- make ~cluster:(endpoints ports) 0;
      threads.(0) <- start replicas.(0);
      with_member0 (fun c ->
          (match Client.request ~timeout:2. c
                   (Command.Kv_put { key = "fresh"; value = "new" })
           with
          | Wire.R_stored -> ()
          | r -> Alcotest.failf "put after restart: %s" (show r));
          match Client.request ~timeout:2. c (Command.Kv_get "fresh") with
          | Wire.R_value (Some "new") -> ()
          | r ->
              Alcotest.failf "get after restart should see its put: %s"
                (show r)))

let suite =
  [
    Alcotest.test_case "kv semantics over the loopback cluster" `Quick
      test_kv_semantics;
    Alcotest.test_case "pipelined load completes and replicates" `Quick
      test_pipelined_load_replicates;
    Alcotest.test_case "client-submitted batch is rejected" `Quick
      test_client_batch_rejected;
    Alcotest.test_case "batching folds commands into decrees" `Quick
      test_batching_counts;
    Alcotest.test_case "a corrupt snapshot refuses to boot" `Quick
      test_corrupt_snapshot_refused;
    Alcotest.test_case "a late member sees no bad frames" `Quick
      test_late_member_no_bad_frames;
    Alcotest.test_case "a restarted member stamps fresh command ids" `Quick
      test_restart_stamps_fresh_ids;
  ]
