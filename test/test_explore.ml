(* The generic layered-BFS engine (lib/mcheck/explore) and the 128-bit
   fingerprints its visited set is keyed on.

   The load-bearing properties here:
   - bound semantics: every discovered state is property-checked before
     the state cap or depth bound drops it (the cap once silently
     swallowed the witness);
   - determinism: serial (domains = 1) and parallel (domains = 4) runs
     produce identical outcomes — including the same first witness —
     for randomized configurations of both protocol models;
   - fingerprint soundness: exact-keys mode observes zero collisions on
     the real state spaces. *)

(* --- a toy chain: state = i, succ i = [i+1] -------------------------- *)

let fp_of xs =
  Mcheck.Fingerprint.(
    finish (List.fold_left add (hasher ()) xs))

let int_fp i = fp_of [ i ]

let chain ?(domains = 1) ?(exact_keys = false) ~max_depth ~max_states properties
    =
  Mcheck.Explore.run ~domains ~exact_keys ~initial:0
    ~successors:(fun i -> [ i + 1 ])
    ~fingerprint:int_fp ~key:Fun.id ~properties ~max_depth ~max_states ()

let test_cap_checks_before_drop () =
  (* regression: the state arriving exactly at the cap must still be
     property-checked (it used to be dropped unchecked while its edge
     counted) *)
  let o =
    chain ~max_depth:100 ~max_states:2 [ ("small", fun i -> i < 2) ]
  in
  Alcotest.(check int) "stored states" 2 o.Mcheck.Explore.states;
  Alcotest.(check int) "edges of expanded levels" 2 o.Mcheck.Explore.transitions;
  Alcotest.(check bool) "incomplete" false o.Mcheck.Explore.complete;
  Alcotest.(check bool) "the dropped state is the witness" true
    (match o.Mcheck.Explore.violation with
    | Some ("small", 2) -> true
    | _ -> false)

let test_cap_gates_storage_only () =
  let o = chain ~max_depth:100 ~max_states:3 [ ("true", fun _ -> true) ] in
  Alcotest.(check int) "stored states" 3 o.Mcheck.Explore.states;
  Alcotest.(check int) "edges" 3 o.Mcheck.Explore.transitions;
  Alcotest.(check bool) "incomplete" false o.Mcheck.Explore.complete;
  Alcotest.(check bool) "no violation" true
    (Option.is_none o.Mcheck.Explore.violation)

let test_depth_bound_stores_and_checks () =
  (* states at the depth bound are stored and checked, not expanded *)
  let o = chain ~max_depth:2 ~max_states:1000 [ ("true", fun _ -> true) ] in
  Alcotest.(check int) "0,1,2 stored" 3 o.Mcheck.Explore.states;
  Alcotest.(check int) "two expanded levels" 2 o.Mcheck.Explore.transitions;
  Alcotest.(check bool) "incomplete" false o.Mcheck.Explore.complete;
  let o = chain ~max_depth:2 ~max_states:1000 [ ("small", fun i -> i < 2) ] in
  Alcotest.(check bool) "frontier state at the bound is checked" true
    (match o.Mcheck.Explore.violation with
    | Some ("small", 2) -> true
    | _ -> false)

let test_exhaustive_small () =
  let o =
    Mcheck.Explore.run ~initial:0
      ~successors:(fun i -> if i < 4 then [ i + 1 ] else [])
      ~fingerprint:int_fp ~key:Fun.id
      ~properties:[ ("true", fun _ -> true) ]
      ~max_depth:100 ~max_states:1000 ()
  in
  Alcotest.(check int) "five states" 5 o.Mcheck.Explore.states;
  Alcotest.(check int) "four edges" 4 o.Mcheck.Explore.transitions;
  Alcotest.(check bool) "complete" true o.Mcheck.Explore.complete;
  Alcotest.(check bool) "no collision count outside exact mode" true
    (Option.is_none o.Mcheck.Explore.collisions);
  Alcotest.(check bool) "table footprint measured" true
    (o.Mcheck.Explore.table_words > 0)

(* --- fingerprints ---------------------------------------------------- *)

let test_fingerprint_basics () =
  Alcotest.(check bool) "deterministic" true
    (Mcheck.Fingerprint.equal (fp_of [ 1; 2; 3 ]) (fp_of [ 1; 2; 3 ]));
  Alcotest.(check bool) "order-sensitive" false
    (Mcheck.Fingerprint.equal (fp_of [ 1; 2 ]) (fp_of [ 2; 1 ]));
  Alcotest.(check bool) "length-sensitive" false
    (Mcheck.Fingerprint.equal (fp_of [ 1 ]) (fp_of [ 1; 0 ]));
  Alcotest.(check int) "hex is 128 bits" 32
    (String.length (Mcheck.Fingerprint.to_hex (fp_of [ 42 ])));
  let hex = Mcheck.Fingerprint.to_hex (fp_of [ 5 ]) in
  Alcotest.(check string) "of_hex inverts to_hex" hex
    Mcheck.Fingerprint.(to_hex (of_hex hex));
  Alcotest.check_raises "of_hex rejects upper case"
    (Invalid_argument "Fingerprint.of_hex") (fun () ->
      ignore (Mcheck.Fingerprint.of_hex (String.uppercase_ascii hex)))

let test_fingerprint_no_collisions_smoke () =
  (* 100k single-word inputs: all fingerprints distinct *)
  let set = Mcheck.Fingerprint.Set.create () in
  for i = 0 to 99_999 do
    Mcheck.Fingerprint.Set.add set (int_fp i)
  done;
  Alcotest.(check int) "distinct" 100_000 (Mcheck.Fingerprint.Set.length set)

(* [of_words] (one loop, unboxed lanes) and folding [add] are one hash
   definition: both models' fingerprints rest on that.  Word lists mix
   uniform ints with the edges of the int range, and the empty list and
   the extreme words are checked outright. *)
let words_arb =
  QCheck.make ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 0 64)
        (frequency [ (1, oneofl [ 0; 1; -1; min_int; max_int ]); (3, int) ]))

let of_words_agrees ws =
  Mcheck.Fingerprint.equal
    (Mcheck.Fingerprint.of_words (Array.of_list ws))
    (fp_of ws)

let prop_of_words_matches_add =
  QCheck.Test.make ~name:"of_words agrees with folding add" ~count:500
    words_arb of_words_agrees

let test_of_words_edge_words () =
  List.iter
    (fun ws ->
      Alcotest.(check bool)
        (Printf.sprintf "[%s]" (String.concat "; " (List.map string_of_int ws)))
        true (of_words_agrees ws))
    [ []; [ 0 ]; [ -1 ]; [ min_int ]; [ max_int ]; [ min_int; max_int; -1; 0 ] ]

(* Pinned fingerprint values: a change to the hasher or to a canonical
   stream that alters any fingerprint fails here, not silently in the
   visited-set layout. *)

let paxos_cfg =
  { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1;
    gate = true }

let bc_cfg =
  { Mcheck.Bc_model.n = 3; proposals = [| 10; 20; 30 |]; max_round = 1;
    mutation = None }

(* MD5 over the hex fingerprint of every successor generated by a BFS to
   [depth], deduplicated on the structural key.  Keys are bucketed on a
   hash of the whole key, as in {!Mcheck.Explore}'s exact mode: the
   default [Hashtbl.hash] reads only 10 meaningful words, too few to
   tell deep states apart. *)
let bfs_digest (type k) ~initial ~successors ~(key : _ -> k) ~fingerprint
    ~depth =
  let module Seen = Hashtbl.Make (struct
    type t = k

    let equal = ( = )

    let hash = Hashtbl.hash_param 256 256
  end) in
  let buf = Buffer.create 4096 in
  let seen = Seen.create 1024 in
  Seen.replace seen (key initial) ();
  let rec level d frontier =
    if d < depth then
      level (d + 1)
        (List.concat_map
           (fun st ->
             List.filter
               (fun s ->
                 Buffer.add_string buf
                   (Mcheck.Fingerprint.to_hex (fingerprint s));
                 let k = key s in
                 (not (Seen.mem seen k))
                 && (Seen.replace seen k (); true))
               (successors st))
           frontier)
  in
  level 0 [ initial ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_fingerprint_values_pinned () =
  let hex fp = Mcheck.Fingerprint.to_hex fp in
  Alcotest.(check string) "paxos initial" "19a59802b31661a82dea809d8220f6ff"
    (hex (Mcheck.Model.fingerprint (Mcheck.Model.initial paxos_cfg)));
  Alcotest.(check string) "b-consensus initial"
    "f93fd91f81e46cac8cc006b19010c1a4"
    (hex (Mcheck.Bc_model.fingerprint (Mcheck.Bc_model.initial bc_cfg)));
  Alcotest.(check string) "paxos depth-4 successors (983 edges)"
    "869ba3d238755783d3e7578b6c97d4a3"
    (bfs_digest ~initial:(Mcheck.Model.initial paxos_cfg)
       ~successors:(Mcheck.Model.successors paxos_cfg) ~key:Mcheck.Model.key
       ~fingerprint:Mcheck.Model.fingerprint ~depth:4);
  (* depth 4 reaches only announces, Start Phase 1, 1a delivery and
     phase 2a; 2a delivery first fires at depth 5 and decisions at
     depth 7, so this pin covers all six transition kinds *)
  Alcotest.(check string) "paxos depth-7 successors (26632 edges)"
    "0c226c5bcb7b7f506d3c5071abb6618b"
    (bfs_digest ~initial:(Mcheck.Model.initial paxos_cfg)
       ~successors:(Mcheck.Model.successors paxos_cfg) ~key:Mcheck.Model.key
       ~fingerprint:Mcheck.Model.fingerprint ~depth:7);
  Alcotest.(check string) "b-consensus depth-4 successors (228 edges)"
    "f385ce6636bb9da1d7d1872502fdc1d9"
    (bfs_digest ~initial:(Mcheck.Bc_model.initial bc_cfg)
       ~successors:(Mcheck.Bc_model.successors bc_cfg)
       ~key:Mcheck.Bc_model.key ~fingerprint:Mcheck.Bc_model.fingerprint
       ~depth:4)

(* --- the flat fingerprint set against a Hashtbl reference ------------ *)

(* Keys are raw 128-bit values.  Lanes come from a few fixed values
   (zero, all ones, the ends of the initial table) or uniformly, so keys
   often share a home slot and probe chains wrap around the table end;
   the all-zero key (the empty-slot pattern) turns up regularly.  Up to
   3000 operations cross the growth points at 513, 1025 and 2049
   members. *)
let lane_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0L; 1L; -1L; 1023L; 1024L ]);
        (1, map Int64.of_int (int_range 0 3));
        (3, ui64);
      ])

let key_gen =
  QCheck.Gen.map2
    (fun hi lo -> Printf.sprintf "%016Lx%016Lx" hi lo)
    lane_gen lane_gen

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      Printf.sprintf "%d ops: %s ..." (List.length ops)
        (String.concat " "
           (List.filteri (fun i _ -> i < 8)
              (List.map
                 (fun (add, k) -> (if add then "add " else "mem ") ^ k)
                 ops))))
    QCheck.Gen.(list_size (int_range 0 3000) (pair (frequencyl [ (7, true); (3, false) ]) key_gen))

let prop_set_matches_hashtbl =
  QCheck.Test.make ~name:"fingerprint set agrees with a Hashtbl" ~count:60
    ops_arb (fun ops ->
      let set = Mcheck.Fingerprint.Set.create () in
      let reference = Hashtbl.create 16 in
      List.for_all
        (fun (add, hex) ->
          let fp = Mcheck.Fingerprint.of_hex hex in
          if add then begin
            Mcheck.Fingerprint.Set.add set fp;
            Hashtbl.replace reference hex ()
          end;
          Bool.equal
            (Mcheck.Fingerprint.Set.mem set fp)
            (Hashtbl.mem reference hex)
          && Mcheck.Fingerprint.Set.length set = Hashtbl.length reference)
        ops
      && List.for_all
           (fun (_, hex) ->
             Bool.equal
               (Mcheck.Fingerprint.Set.mem set (Mcheck.Fingerprint.of_hex hex))
               (Hashtbl.mem reference hex))
           ops)

let test_model_fingerprint_matches_key () =
  (* over a real BFS prefix, fingerprint equality coincides with
     structural-key equality: exact-keys mode reports zero collisions *)
  let c = { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1;
            gate = true }
  in
  let o =
    Mcheck.Explorer.run ~max_depth:6 ~exact_keys:true c ~max_states:500_000
      ~properties:(Mcheck.Explorer.all_properties c)
  in
  Alcotest.(check (option int)) "no paxos collisions" (Some 0)
    o.Mcheck.Explorer.collisions;
  let bc = { Mcheck.Bc_model.n = 3; proposals = [| 10; 20; 30 |];
             max_round = 1; mutation = None }
  in
  let o =
    Mcheck.Explore.run ~exact_keys:true
      ~initial:(Mcheck.Bc_model.initial bc)
      ~successors:(Mcheck.Bc_model.successors bc)
      ~fingerprint:Mcheck.Bc_model.fingerprint ~key:Mcheck.Bc_model.key
      ~properties:[ ("agreement", Mcheck.Bc_model.agreement) ]
      ~max_depth:7 ~max_states:500_000 ()
  in
  Alcotest.(check (option int)) "no bc collisions" (Some 0)
    o.Mcheck.Explore.collisions

(* --- serial vs parallel determinism (randomized configs) ------------- *)

(* Small state caps are deliberately included so the `Full path (the cap
   semantics above) is exercised under parallel merge too. *)

type pcase = { gate : bool; sessions : int; depth : int; cap : int; prop : int }

let paxos_proposals = [| [| 10; 20; 30 |]; [| 10; 10; 20 |]; [| 7; 7; 7 |] |]

let pcase_gen =
  QCheck.Gen.(
    let* gate = bool in
    let* sessions = int_range 1 2 in
    let* depth = int_range 3 6 in
    let* cap = oneofl [ 40; 700; 500_000 ] in
    let* prop = int_range 0 (Array.length paxos_proposals - 1) in
    return { gate; sessions; depth; cap; prop })

let pcase_print c =
  Printf.sprintf "{gate=%b; sessions=%d; depth=%d; cap=%d; prop=%d}" c.gate
    c.sessions c.depth c.cap c.prop

let pcase_arb = QCheck.make ~print:pcase_print pcase_gen

let paxos_summary (o : Mcheck.Explorer.outcome) =
  ( o.states,
    o.transitions,
    o.complete,
    Option.map (fun (name, st) -> (name, Mcheck.Model.key st)) o.violation )

let prop_paxos_serial_parallel =
  QCheck.Test.make ~name:"paxos: domains=1 and domains=4 agree" ~count:15
    pcase_arb (fun c ->
      let cfg =
        { Mcheck.Model.n = 3; proposals = paxos_proposals.(c.prop);
          max_session = c.sessions; gate = c.gate }
      in
      let props =
        if c.gate then Mcheck.Explorer.all_properties cfg
        else Mcheck.Explorer.safety_properties cfg
      in
      let run domains =
        paxos_summary
          (Mcheck.Explorer.run ~max_depth:c.depth ~domains cfg
             ~max_states:c.cap ~properties:props)
      in
      run 1 = run 4)

type bcase = { mutate : bool; rounds : int; bdepth : int; bcap : int }

let bcase_gen =
  QCheck.Gen.(
    let* mutate = bool in
    let* rounds = int_range 1 2 in
    let* bdepth = int_range 3 6 in
    let* bcap = oneofl [ 40; 700; 500_000 ] in
    return { mutate; rounds; bdepth; bcap })

let bcase_print c =
  Printf.sprintf "{mutate=%b; rounds=%d; depth=%d; cap=%d}" c.mutate c.rounds
    c.bdepth c.bcap

let bcase_arb = QCheck.make ~print:bcase_print bcase_gen

let bc_run ~domains ~cfg ~max_depth ~max_states props =
  let o =
    Mcheck.Explore.run ~domains
      ~initial:(Mcheck.Bc_model.initial cfg)
      ~successors:(Mcheck.Bc_model.successors cfg)
      ~fingerprint:Mcheck.Bc_model.fingerprint ~key:Mcheck.Bc_model.key
      ~properties:props ~max_depth ~max_states ()
  in
  ( o.Mcheck.Explore.states,
    o.Mcheck.Explore.transitions,
    o.Mcheck.Explore.complete,
    Option.map
      (fun (name, st) -> (name, Mcheck.Bc_model.key st))
      o.Mcheck.Explore.violation )

let prop_bc_serial_parallel =
  QCheck.Test.make ~name:"b-consensus: domains=1 and domains=4 agree"
    ~count:15 bcase_arb (fun c ->
      let cfg =
        { Mcheck.Bc_model.n = 3; proposals = [| 10; 20; 30 |];
          max_round = c.rounds;
          mutation =
            (if c.mutate then Some Mcheck.Bc_model.Lock_on_first_report
             else None) }
      in
      let props =
        [
          ("agreement", Mcheck.Bc_model.agreement);
          ("lock-uniqueness", Mcheck.Bc_model.lock_uniqueness);
        ]
      in
      let run domains =
        bc_run ~domains ~cfg ~max_depth:c.bdepth ~max_states:c.bcap props
      in
      run 1 = run 4)

let test_first_witness_deterministic () =
  (* a seeded violation (the planted lock bug) must yield the same first
     witness — BFS discovery order — serially, in parallel, and across
     repeated runs *)
  let cfg =
    { Mcheck.Bc_model.n = 3; proposals = [| 10; 20; 30 |]; max_round = 1;
      mutation = Some Mcheck.Bc_model.Lock_on_first_report }
  in
  let props = [ ("lock-uniqueness", Mcheck.Bc_model.lock_uniqueness) ] in
  let run domains =
    bc_run ~domains ~cfg ~max_depth:8 ~max_states:500_000 props
  in
  let _, _, _, w1 = run 1 in
  Alcotest.(check bool) "violation found" true (Option.is_some w1);
  Alcotest.(check bool) "serial re-run: same witness" true (run 1 = run 1);
  Alcotest.(check bool) "parallel: same witness" true (run 1 = run 4)

let test_registry_counters () =
  let reg = Sim.Registry.create () in
  let c = { Mcheck.Model.n = 3; proposals = [| 10; 20; 30 |]; max_session = 1;
            gate = true }
  in
  let o =
    Mcheck.Explorer.run ~max_depth:4 ~registry:reg c ~max_states:500_000
      ~properties:(Mcheck.Explorer.all_properties c)
  in
  (* every stored state passes through exactly one frontier level *)
  Alcotest.(check int) "frontier states = stored states"
    o.Mcheck.Explorer.states
    (Sim.Registry.counter_total reg "mcheck_frontier_states");
  Alcotest.(check int) "levels = depth levels entered" 5
    (Sim.Registry.counter_total reg "mcheck_frontier_levels")

let suite =
  [
    Alcotest.test_case "cap: witness checked before drop" `Quick
      test_cap_checks_before_drop;
    Alcotest.test_case "cap gates storage only" `Quick
      test_cap_gates_storage_only;
    Alcotest.test_case "depth bound stores and checks" `Quick
      test_depth_bound_stores_and_checks;
    Alcotest.test_case "exhaustive small space" `Quick test_exhaustive_small;
    Alcotest.test_case "fingerprint basics" `Quick test_fingerprint_basics;
    Alcotest.test_case "fingerprints: 100k distinct" `Quick
      test_fingerprint_no_collisions_smoke;
    Alcotest.test_case "fingerprint values pinned" `Quick
      test_fingerprint_values_pinned;
    Alcotest.test_case "of_words: empty and extreme words" `Quick
      test_of_words_edge_words;
    QCheck_alcotest.to_alcotest prop_of_words_matches_add;
    QCheck_alcotest.to_alcotest prop_set_matches_hashtbl;
    Alcotest.test_case "exact-keys: zero collisions, both models" `Quick
      test_model_fingerprint_matches_key;
    Alcotest.test_case "first witness deterministic" `Quick
      test_first_witness_deterministic;
    Alcotest.test_case "frontier registry counters" `Quick
      test_registry_counters;
    QCheck_alcotest.to_alcotest prop_paxos_serial_parallel;
    QCheck_alcotest.to_alcotest prop_bc_serial_parallel;
  ]
