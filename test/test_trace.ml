(* Trace v2: ring-buffer storage, typed payloads, message ids, windowed
   queries and the JSONL round-trip. *)

let send ?(id = 0) ?(kind = "x") t =
  Sim.Trace.Send { t; id; src = 0; dst = 1; payload = Sim.Trace.info kind }

let test_disabled_noop () =
  let tr = Sim.Trace.create ~enabled:false () in
  Sim.Trace.record tr (send 1.0);
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.length tr);
  Alcotest.(check bool) "enabled reports false" false (Sim.Trace.enabled tr)

let test_order_preserved () =
  let tr = Sim.Trace.create ~enabled:true () in
  Sim.Trace.record tr (send 1.0);
  Sim.Trace.record tr (send 2.0);
  Sim.Trace.record tr (send 3.0);
  Alcotest.(check (list (float 0.)))
    "chronological" [ 1.0; 2.0; 3.0 ]
    (List.map Sim.Trace.time_of (Sim.Trace.entries tr));
  Alcotest.(check int) "length" 3 (Sim.Trace.length tr)

let test_sends_in_window () =
  let tr = Sim.Trace.create ~enabled:true () in
  List.iter (fun t -> Sim.Trace.record tr (send t)) [ 0.5; 1.0; 1.5; 2.0 ];
  Sim.Trace.record tr (Sim.Trace.Decide { t = 2.5; proc = 0; value = 7 });
  Alcotest.(check int) "window [1,2]" 3
    (Sim.Trace.sends_in_window tr ~lo:1.0 ~hi:2.0);
  Alcotest.(check int) "empty window" 0
    (Sim.Trace.sends_in_window tr ~lo:5.0 ~hi:6.0)

let test_decisions () =
  let tr = Sim.Trace.create ~enabled:true () in
  Sim.Trace.record tr (Sim.Trace.Decide { t = 1.0; proc = 2; value = 9 });
  Sim.Trace.record tr (send 1.5);
  Sim.Trace.record tr (Sim.Trace.Decide { t = 2.0; proc = 0; value = 9 });
  Alcotest.(check (list (triple int (float 0.) int)))
    "decisions extracted"
    [ (2, 1.0, 9); (0, 2.0, 9) ]
    (Sim.Trace.decisions tr)

let all_constructors =
  [
    Sim.Trace.Send
      {
        t = 1.;
        id = 3;
        src = 0;
        dst = 1;
        payload =
          Sim.Trace.payload ~session:2 ~ballot:11 ~phase:1 ~detail:"v" "1a";
      };
    Sim.Trace.Deliver
      { t = 1.; id = 3; src = 0; dst = 1; payload = Sim.Trace.info "1a" };
    Sim.Trace.Drop
      {
        t = 1.;
        id = Sim.Trace.no_origin;
        src = 0;
        dst = 1;
        payload = Sim.Trace.payload ~round:4 ~value:10 "est";
      };
    Sim.Trace.Timer_set { t = 1.; proc = 0; tag = 3; fire_at = 2. };
    Sim.Trace.Timer_fire { t = 2.; proc = 0; tag = 3 };
    Sim.Trace.Crash { t = 1.; proc = 0 };
    Sim.Trace.Restart { t = 2.; proc = 0 };
    Sim.Trace.Decide { t = 3.; proc = 0; value = 1 };
    Sim.Trace.Note { t = 3.; proc = 0; text = "hello: \"quoted\"\nline" };
  ]

let test_pp_entries () =
  (* Every constructor renders without raising. *)
  List.iter
    (fun e ->
      let s = Format.asprintf "%a" Sim.Trace.pp_entry e in
      Alcotest.(check bool) "non-empty rendering" true (String.length s > 0))
    all_constructors

(* --- ring buffer semantics ------------------------------------------ *)

let test_bounded_wrap () =
  let tr = Sim.Trace.create ~capacity:4 ~enabled:true () in
  for i = 1 to 10 do
    Sim.Trace.record tr (send (float_of_int i))
  done;
  Alcotest.(check int) "retains capacity" 4 (Sim.Trace.length tr);
  Alcotest.(check int) "counts everything" 10 (Sim.Trace.total_recorded tr);
  Alcotest.(check int) "dropped oldest" 6 (Sim.Trace.dropped_oldest tr);
  Alcotest.(check (option int)) "capacity" (Some 4) (Sim.Trace.capacity tr);
  Alcotest.(check (list (float 0.)))
    "keeps the newest, oldest first" [ 7.; 8.; 9.; 10. ]
    (List.map Sim.Trace.time_of (Sim.Trace.entries tr));
  (* windowed queries still work over the retained suffix *)
  Alcotest.(check int) "window over retained" 2
    (Sim.Trace.sends_in_window tr ~lo:8.0 ~hi:9.0)

let test_bounded_exact_fill () =
  let tr = Sim.Trace.create ~capacity:3 ~enabled:true () in
  for i = 1 to 3 do
    Sim.Trace.record tr (send (float_of_int i))
  done;
  Alcotest.(check int) "full but unwrapped" 3 (Sim.Trace.length tr);
  Alcotest.(check int) "nothing dropped" 0 (Sim.Trace.dropped_oldest tr);
  Alcotest.(check (float 0.)) "get 0" 1. (Sim.Trace.time_of (Sim.Trace.get tr 0));
  Alcotest.(check (float 0.)) "get 2" 3. (Sim.Trace.time_of (Sim.Trace.get tr 2))

let test_unbounded_growth () =
  let tr = Sim.Trace.create ~enabled:true () in
  for i = 1 to 1000 do
    Sim.Trace.record tr (send (float_of_int i))
  done;
  Alcotest.(check int) "all retained" 1000 (Sim.Trace.length tr);
  Alcotest.(check (option int)) "unbounded" None (Sim.Trace.capacity tr);
  Alcotest.(check int) "fold sees all" 1000
    (Sim.Trace.fold (fun acc _ -> acc + 1) 0 tr)

let test_create_validation () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Trace.create: negative capacity") (fun () ->
      ignore (Sim.Trace.create ~capacity:(-1) ~enabled:true ()))

(* --- JSONL round-trip ----------------------------------------------- *)

let entry_eq (a : Sim.Trace.entry) (b : Sim.Trace.entry) = a = b

let test_jsonl_round_trip_all_constructors () =
  let tr = Sim.Trace.create ~enabled:true () in
  List.iter (Sim.Trace.record tr) all_constructors;
  let s = Sim.Trace.to_jsonl tr in
  match Sim.Trace.of_jsonl s with
  | Error msg -> Alcotest.fail msg
  | Ok tr' ->
      Alcotest.(check int) "same length" (Sim.Trace.length tr)
        (Sim.Trace.length tr');
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Format.asprintf "identical: %a" Sim.Trace.pp_entry a)
            true (entry_eq a b))
        (Sim.Trace.entries tr) (Sim.Trace.entries tr')

let test_jsonl_rejects_garbage () =
  (match Sim.Trace.of_jsonl "{\"ev\":\"nope\",\"t\":1}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown event accepted");
  (match Sim.Trace.of_jsonl "not json at all\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  (* integer fields take integer lexemes only, and a time must be a JSON
     number: the exporter writes neither 3.0 for an int nor inf/nan *)
  let good = {|{"ev":"crash","t":1,"proc":2}|} in
  List.iter
    (fun bad ->
      match Sim.Trace.of_jsonl (good ^ "\n" ^ bad) with
      | Error msg ->
          Alcotest.(check string) "error names the line" "line 2:"
            (String.sub msg 0 7)
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [
      {|{"ev":"crash","t":1,"proc":3.0}|};
      {|{"ev":"crash","t":inf,"proc":3}|};
      {|{"ev":"crash","t":nan,"proc":3}|};
      {|{"ev":"crash","t":null,"proc":3}|};
    ];
  match Sim.Trace.of_jsonl "" with
  | Ok tr -> Alcotest.(check int) "empty input, empty trace" 0 (Sim.Trace.length tr)
  | Error msg -> Alcotest.fail msg

(* Property: arbitrary traces survive the JSONL round-trip exactly,
   including awkward floats and control characters in strings. *)
let arbitrary_entry =
  let open QCheck in
  let time = Gen.map Float.abs Gen.float in
  let small = Gen.int_range 0 64 in
  let str =
    Gen.oneof
      [
        Gen.small_string ~gen:Gen.printable;
        Gen.small_string ~gen:(Gen.char_range '\000' '\255');
        Gen.return "session:3:start";
      ]
  in
  let payload =
    Gen.map2
      (fun (kind, detail) (session, ballot) ->
        Sim.Trace.payload ?session ?ballot ~detail kind)
      (Gen.pair str str)
      (Gen.pair (Gen.opt small) (Gen.opt small))
  in
  let gen =
    Gen.oneof
      [
        Gen.map2
          (fun (t, id) ((src, dst), payload) ->
            Sim.Trace.Send { t; id; src; dst; payload })
          (Gen.pair time (Gen.int_range (-1) 1000))
          (Gen.pair (Gen.pair small small) payload);
        Gen.map2
          (fun (t, id) ((src, dst), payload) ->
            Sim.Trace.Deliver { t; id; src; dst; payload })
          (Gen.pair time (Gen.int_range (-1) 1000))
          (Gen.pair (Gen.pair small small) payload);
        Gen.map2
          (fun (t, proc) (tag, dt) ->
            Sim.Trace.Timer_set { t; proc; tag; fire_at = t +. dt })
          (Gen.pair time small)
          (Gen.pair (Gen.int_range (-1) 9) time);
        Gen.map2
          (fun t (proc, value) -> Sim.Trace.Decide { t; proc; value })
          time (Gen.pair small Gen.int);
        Gen.map2
          (fun t (proc, text) -> Sim.Trace.Note { t; proc; text })
          time (Gen.pair small str);
      ]
  in
  make ~print:(Format.asprintf "%a" Sim.Trace.pp_entry) gen

let prop_jsonl_round_trip =
  QCheck.Test.make ~count:500 ~name:"JSONL round-trip is lossless"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 40) arbitrary_entry)
    (fun entries ->
      let tr = Sim.Trace.create ~enabled:true () in
      List.iter (Sim.Trace.record tr) entries;
      match Sim.Trace.of_jsonl (Sim.Trace.to_jsonl tr) with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok tr' -> Sim.Trace.entries tr = Sim.Trace.entries tr')

(* [deliver_as_sent]/[drop_as_sent] copy a retained send's record with
   the tag and time rewritten, and refuse anything else. *)
let test_copy_of_send () =
  let module T = Sim.Trace in
  let payload = T.payload ~session:2 ~ballot:11 ~phase:1 ~detail:"v" "1b" in
  let key = Sim.Sim_time.key_of_t in
  let last tr = T.get tr (T.length tr - 1) in
  let tr = T.create ~enabled:true () in
  let sent = T.total_recorded tr in
  T.record_send tr ~t:1.0 ~id:5 ~src:0 ~dst:3 payload;
  T.record_timer_fire tr ~t:1.5 ~proc:3 ~tag:1;
  Alcotest.(check bool) "delivery copied" true
    (T.deliver_as_sent tr ~sent ~key:(key 2.0));
  Alcotest.(check bool) "delivery entry" true
    (last tr = T.Deliver { t = 2.0; id = 5; src = 0; dst = 3; payload });
  Alcotest.(check bool) "drop copied" true
    (T.drop_as_sent tr ~sent ~key:(key 2.5));
  Alcotest.(check bool) "drop entry" true
    (last tr = T.Drop { t = 2.5; id = 5; src = 0; dst = 3; payload });
  let n = T.length tr in
  Alcotest.(check bool) "a timer record is no send" false
    (T.deliver_as_sent tr ~sent:(sent + 1) ~key:(key 3.0));
  Alcotest.(check bool) "a delivery record is no send" false
    (T.deliver_as_sent tr ~sent:(sent + 2) ~key:(key 3.0));
  Alcotest.(check bool) "no such record yet" false
    (T.deliver_as_sent tr ~sent:(T.total_recorded tr) ~key:(key 3.0));
  Alcotest.(check bool) "no negative record" false
    (T.deliver_as_sent tr ~sent:(-1) ~key:(key 3.0));
  Alcotest.(check int) "refusals record nothing" n (T.length tr);
  (* a full ring of one: the copy overwrites the send it copies *)
  let one = T.create ~capacity:1 ~enabled:true () in
  T.record_send one ~t:1.0 ~id:5 ~src:0 ~dst:3 payload;
  Alcotest.(check bool) "copy over its own send" true
    (T.deliver_as_sent one ~sent:0 ~key:(key 2.0));
  Alcotest.(check bool) "the ring holds the delivery" true
    (T.entries one = [ T.Deliver { t = 2.0; id = 5; src = 0; dst = 3; payload } ]);
  (* a ring that has moved past the send *)
  let two = T.create ~capacity:2 ~enabled:true () in
  T.record_send two ~t:1.0 ~id:5 ~src:0 ~dst:3 payload;
  T.record_timer_fire two ~t:1.5 ~proc:3 ~tag:1;
  T.record_timer_fire two ~t:1.6 ~proc:3 ~tag:1;
  Alcotest.(check bool) "overwritten send refused" false
    (T.deliver_as_sent two ~sent:0 ~key:(key 2.0));
  Alcotest.(check int) "nothing recorded" 3 (T.total_recorded two);
  let off = T.create ~enabled:false () in
  T.record_send off ~t:1.0 ~id:5 ~src:0 ~dst:3 payload;
  Alcotest.(check bool) "disabled trace refuses" false
    (T.deliver_as_sent off ~sent:0 ~key:(key 2.0))

(* Field readers read the same values [get] decodes. *)
let prop_field_readers_agree =
  QCheck.Test.make ~count:300 ~name:"field readers agree with get"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 40) arbitrary_entry)
    (fun entries ->
      let tr = Sim.Trace.create ~enabled:true () in
      List.iter (Sim.Trace.record tr) entries;
      List.for_all
        (fun i ->
          let module T = Sim.Trace in
          let e = T.get tr i in
          Float.equal (T.entry_time tr i) (T.time_of e)
          && T.compare_times tr i 0 = Float.compare (T.time_of e)
                                        (T.time_of (T.get tr 0))
          &&
          match (T.tag_at tr i, e) with
          | T.Tag_send, T.Send { id; src; dst; _ }
          | T.Tag_deliver, T.Deliver { id; src; dst; _ }
          | T.Tag_drop, T.Drop { id; src; dst; _ } ->
              T.id_at tr i = id && T.src_at tr i = src && T.dst_at tr i = dst
          | T.Tag_timer_set, T.Timer_set { proc; tag; fire_at; _ } ->
              T.proc_at tr i = proc && T.timer_tag_at tr i = tag
              && Float.equal (T.fire_time tr i) fire_at
          | T.Tag_timer_fire, T.Timer_fire { proc; tag; _ } ->
              T.proc_at tr i = proc && T.timer_tag_at tr i = tag
          | T.Tag_crash, T.Crash { proc; _ }
          | T.Tag_restart, T.Restart { proc; _ } ->
              T.proc_at tr i = proc
          | T.Tag_decide, T.Decide { proc; value; _ } ->
              T.proc_at tr i = proc && T.decided_at tr i = value
          | T.Tag_note, T.Note { proc; text; _ } ->
              T.proc_at tr i = proc && T.text_at tr i = text
          | _ -> false)
        (List.init (Sim.Trace.length tr) Fun.id))

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_field_reader_errors () =
  let tr = Sim.Trace.create ~enabled:true () in
  Sim.Trace.record tr (send 1.0);
  Alcotest.(check bool) "out of bounds" true
    (raises (fun () -> Sim.Trace.id_at tr 1));
  Alcotest.(check bool) "no proc on a send" true
    (raises (fun () -> Sim.Trace.proc_at tr 0));
  Alcotest.(check bool) "no fire time on a send" true
    (raises (fun () -> Sim.Trace.fire_time tr 0))

(* The JSONL of every experiment's traced replay, pinned by MD5.  The
   values were taken before the record path learned to copy a send's
   record into its delivery and before export wrote records straight
   into the buffer; both must leave every byte as it was. *)
let replay_jsonl_md5 =
  [
    ("e1", "d8a4a7998db3fa76d8491c55a4169405");
    ("e2", "9552813e9b674b325fc9ef9e070c27e3");
    ("e3", "04dd3329372d973a08eb8ab5d4c7dd44");
    ("e4", "ec288ddbcda7324f1014d24b00fb354f");
    ("e5", "3870b66e07023e84ca757a9eeb227fcc");
    ("e6", "d053616af3bc6691e52e97fcf460d84e");
    ("e7", "546afa37827426eaad9ba74da0b514be");
    ("e8", "3ed61925d5d812968848cd62e16b5131");
    ("e9", "21c1fd30d5e6fabf0c7cd83280a62269");
    ("e10", "6e1e1a9e2ad43e052ad39acd3b036ef4");
    ("e11", "09dbfa46cf0d638e6c5f4c4bc041d59f");
    ("a1", "4d9f73f193ed84c0da8a27cb9bdb3c0c");
    ("a2", "bd91c24cf54a0c33ae56da62ddd2f068");
    ("a3", "3e41d79aeb247974dcc1208928a697a0");
    ("a4", "5bcbf806067ee6b32615ac84c1cac44f");
  ]

let test_replay_jsonl_pinned () =
  Alcotest.(check (list string))
    "pinned ids are the experiment ids" Harness.Experiments.ids
    (List.map fst replay_jsonl_md5);
  List.iter
    (fun (id, md5) ->
      match Harness.Experiments.replay id with
      | None -> Alcotest.fail (id ^ ": no replay")
      | Some rp ->
          Alcotest.(check string)
            (id ^ ": MD5 of the exported JSONL")
            md5
            (Digest.to_hex
               (Digest.string (Sim.Trace.to_jsonl rp.Harness.Experiments.trace))))
    replay_jsonl_md5

(* --- released traces and the per-domain spare ----------------------- *)

(* Takes whatever spare this domain holds, so the next trace starts from
   an empty buffer. *)
let drain_spare () = ignore (Sim.Trace.create ~enabled:true () : Sim.Trace.t)

(* Leaves a spare of at least [records] records, filled with entries of
   every kind, so that a reader that strays past [length] would see
   them. *)
let prime_spare records =
  drain_spare ();
  let tr = Sim.Trace.create ~enabled:true () in
  let k = ref 0 in
  while Sim.Trace.length tr < records do
    List.iter (Sim.Trace.record tr)
      (List.map
         (fun e ->
           incr k;
           match e with
           | Sim.Trace.Decide d -> Sim.Trace.Decide { d with value = !k }
           | e -> e)
         all_constructors)
  done;
  Sim.Trace.release tr

(* A Modified-Paxos fuzz scenario run traced under the engine: its JSONL
   export, retained length and first entry past the end. *)
let fuzz_run_jsonl index =
  let fs =
    Harness.Fuzz.generate ~protocol:Harness.Fuzz_scenario.Modified_paxos
      ~seed:42L ~index ()
  in
  let cfg =
    Dgl.Config.make ~n:fs.Harness.Fuzz_scenario.n
      ~delta:fs.Harness.Fuzz_scenario.delta ~rho:fs.Harness.Fuzz_scenario.rho
      ()
  in
  let r =
    Sim.Engine.run
      (Harness.Fuzz_scenario.to_scenario fs)
      (Dgl.Modified_paxos.protocol cfg)
  in
  let tr = r.Sim.Engine.trace in
  let n = Sim.Trace.length tr in
  let past_end = raises (fun () -> Sim.Trace.tag_at tr n) in
  let jsonl = Sim.Trace.to_jsonl tr in
  Sim.Trace.release tr;
  (jsonl, n, past_end)

let test_released_trace_raises () =
  let module T = Sim.Trace in
  let tr = T.create ~enabled:true () in
  List.iter (T.record tr) all_constructors;
  T.release tr;
  let payload = T.info "1a" in
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) (what ^ " raises") true (raises f))
    [
      ("length", fun () -> ignore (T.length tr));
      ("total_recorded", fun () -> ignore (T.total_recorded tr));
      ("dropped_oldest", fun () -> ignore (T.dropped_oldest tr));
      ("capacity", fun () -> ignore (T.capacity tr));
      ("get", fun () -> ignore (T.get tr 0));
      ("tag_at", fun () -> ignore (T.tag_at tr 0));
      ("entry_time", fun () -> ignore (T.entry_time tr 0));
      ("id_at", fun () -> ignore (T.id_at tr 0));
      ("iter", fun () -> T.iter ignore tr);
      ("entries", fun () -> ignore (T.entries tr));
      ("decisions", fun () -> ignore (T.decisions tr));
      ( "fold_window",
        fun () -> T.fold_window (fun () _ -> ()) () tr ~lo:0. ~hi:9. );
      ( "sends_in_window",
        fun () -> ignore (T.sends_in_window tr ~lo:0. ~hi:9.) );
      ("to_jsonl", fun () -> ignore (T.to_jsonl tr));
      ("record", fun () -> T.record tr (send 2.0));
      ( "record_send",
        fun () -> T.record_send tr ~t:2. ~id:0 ~src:0 ~dst:1 payload );
      ( "record_timer_fire",
        fun () -> T.record_timer_fire tr ~t:2. ~proc:0 ~tag:1 );
      ("record_decide", fun () -> T.record_decide tr ~t:2. ~proc:0 ~value:1);
      ("record_note", fun () -> T.record_note tr ~t:2. ~proc:0 "n");
      ( "deliver_as_sent",
        fun () ->
          ignore (T.deliver_as_sent tr ~sent:0 ~key:(Sim.Sim_time.key_of_t 2.))
      );
    ];
  (* a bounded trace too: its full ring must not take the overwrite path *)
  let ring = T.create ~capacity:2 ~enabled:true () in
  List.iter (T.record ring) all_constructors;
  T.release ring;
  Alcotest.(check bool) "record on a released ring raises" true
    (raises (fun () -> T.record ring (send 2.0)));
  drain_spare ()

(* The same run recorded into a fresh buffer, into a recycled spare much
   larger than it needs (full of another trace's records), and into one
   much smaller (so it grows from the spare): the same bytes out. *)
let test_recycled_buffer_same_export () =
  drain_spare ();
  let fresh, n, fresh_past_end = fuzz_run_jsonl 0 in
  Alcotest.(check bool) "a run with a real trace" true (n > 100);
  Alcotest.(check bool) "fresh: no entry past the end" true fresh_past_end;
  List.iter
    (fun (what, records) ->
      prime_spare records;
      let jsonl, n', past_end = fuzz_run_jsonl 0 in
      Alcotest.(check int) (what ^ ": length") n n';
      Alcotest.(check bool) (what ^ ": no entry past the end") true past_end;
      Alcotest.(check string) (what ^ ": JSONL") fresh jsonl)
    [ ("larger spare", 4 * n); ("smaller spare", n / 4) ];
  drain_spare ()

(* A bounded ring ignores the spare: it wraps the same way with a spare
   larger or smaller than its capacity as with none. *)
let test_bounded_ignores_spare () =
  let run () =
    let tr = Sim.Trace.create ~capacity:8 ~enabled:true () in
    for i = 0 to 29 do
      Sim.Trace.record tr (send ~id:i (0.1 *. float_of_int i));
      if i mod 3 = 0 then
        Sim.Trace.record tr
          (Sim.Trace.Decide { t = 0.1 *. float_of_int i; proc = 1; value = i })
    done;
    let out =
      (Sim.Trace.entries tr, Sim.Trace.to_jsonl tr, Sim.Trace.dropped_oldest tr)
    in
    Sim.Trace.release tr;
    out
  in
  drain_spare ();
  let without = run () in
  List.iter
    (fun (what, records) ->
      prime_spare records;
      Alcotest.(check bool) what true (run () = without))
    [ ("spare larger than the ring", 200); ("spare smaller than the ring", 4) ];
  drain_spare ()

let test_release_harmless () =
  let off = Sim.Trace.create ~enabled:false () in
  Sim.Trace.release off;
  Sim.Trace.release off;
  Sim.Trace.record off (send 1.0);
  Alcotest.(check int) "a released disabled trace still records nothing" 0
    (Sim.Trace.length off);
  let tr = Sim.Trace.create ~enabled:true () in
  Sim.Trace.record tr (send 1.0);
  Sim.Trace.release tr;
  Sim.Trace.release tr;
  (* one buffer must not reach two live traces *)
  let a = Sim.Trace.create ~enabled:true ()
  and b = Sim.Trace.create ~enabled:true () in
  for i = 0 to 99 do
    Sim.Trace.record a (send ~id:i ~kind:"a" (float_of_int i));
    Sim.Trace.record b (send ~id:(1000 + i) ~kind:"b" (float_of_int i))
  done;
  let expect ~base kind =
    List.init 100 (fun i -> send ~id:(base + i) ~kind (float_of_int i))
  in
  Alcotest.(check bool) "two traces after a double release are apart" true
    (Sim.Trace.entries a = expect ~base:0 "a"
    && Sim.Trace.entries b = expect ~base:1000 "b");
  Sim.Trace.release a;
  Sim.Trace.release b;
  drain_spare ()

let suite =
  [
    Alcotest.test_case "disabled trace is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "sends in window" `Quick test_sends_in_window;
    Alcotest.test_case "decisions extracted" `Quick test_decisions;
    Alcotest.test_case "pp renders all constructors" `Quick test_pp_entries;
    Alcotest.test_case "bounded ring wraps" `Quick test_bounded_wrap;
    Alcotest.test_case "bounded ring exact fill" `Quick test_bounded_exact_fill;
    Alcotest.test_case "unbounded growth" `Quick test_unbounded_growth;
    Alcotest.test_case "create validates capacity" `Quick
      test_create_validation;
    Alcotest.test_case "JSONL round-trip, all constructors" `Quick
      test_jsonl_round_trip_all_constructors;
    Alcotest.test_case "JSONL rejects garbage" `Quick test_jsonl_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_jsonl_round_trip;
    Alcotest.test_case "copy of a recorded send" `Quick test_copy_of_send;
    QCheck_alcotest.to_alcotest prop_field_readers_agree;
    Alcotest.test_case "field readers reject other entries" `Quick
      test_field_reader_errors;
    Alcotest.test_case "replay JSONL bytes pinned" `Slow
      test_replay_jsonl_pinned;
    Alcotest.test_case "released trace raises" `Quick
      test_released_trace_raises;
    Alcotest.test_case "recycled buffer exports the same bytes" `Quick
      test_recycled_buffer_same_export;
    Alcotest.test_case "bounded trace ignores the spare" `Quick
      test_bounded_ignores_spare;
    Alcotest.test_case "release of a disabled trace or twice" `Quick
      test_release_harmless;
  ]
