(* The mutable binary-heap event queue against a sorted-list model: same
   drain order under the engine's (time, seq) comparison, including time
   ties, and the same answer on every pop of an add/pop interleaving. *)

let cmp (t1, s1) (t2, s2) =
  let c = compare (t1 : float) t2 in
  if c <> 0 then c else compare (s1 : int) s2

let test_empty () =
  let q = Sim.Event_queue.create ~cmp:compare () in
  Alcotest.(check bool) "is_empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check int) "length" 0 (Sim.Event_queue.length q);
  Alcotest.(check (option int)) "peek" None (Sim.Event_queue.peek_min q);
  Alcotest.(check (option int)) "pop" None (Sim.Event_queue.pop_min q)

let test_exn_on_empty () =
  let q = Sim.Event_queue.create ~cmp:compare () in
  Alcotest.check_raises "peek_min_exn"
    (Invalid_argument "Event_queue.peek_min_exn: empty queue") (fun () ->
      ignore (Sim.Event_queue.peek_min_exn q : int));
  Alcotest.check_raises "pop_min_exn"
    (Invalid_argument "Event_queue.pop_min_exn: empty queue") (fun () ->
      ignore (Sim.Event_queue.pop_min_exn q : int));
  (* A drained-then-refilled queue must behave like a fresh one. *)
  Sim.Event_queue.add q 7;
  Alcotest.(check int) "peek_min_exn" 7 (Sim.Event_queue.peek_min_exn q);
  Alcotest.(check int) "pop_min_exn" 7 (Sim.Event_queue.pop_min_exn q);
  Alcotest.check_raises "pop_min_exn after drain"
    (Invalid_argument "Event_queue.pop_min_exn: empty queue") (fun () ->
      ignore (Sim.Event_queue.pop_min_exn q : int))

let test_basic_order () =
  let q = Sim.Event_queue.of_list ~cmp:compare [ 5; 3; 9; 1; 7; 3; 0; -2 ] in
  Alcotest.(check int) "length" 8 (Sim.Event_queue.length q);
  Alcotest.(check (option int)) "peek" (Some (-2)) (Sim.Event_queue.peek_min q);
  Alcotest.(check (list int))
    "sorted"
    [ -2; 0; 1; 3; 3; 5; 7; 9 ]
    (Sim.Event_queue.drain_sorted q);
  Alcotest.(check bool) "drained" true (Sim.Event_queue.is_empty q)

let test_grows_from_tiny_capacity () =
  let q = Sim.Event_queue.create ~capacity:1 ~cmp:compare () in
  for i = 999 downto 0 do
    Sim.Event_queue.add q i
  done;
  Alcotest.(check int) "length" 1000 (Sim.Event_queue.length q);
  Alcotest.(check (list int))
    "sorted after growth"
    (List.init 1000 Fun.id)
    (Sim.Event_queue.drain_sorted q)

let test_ties_resolved_by_seq () =
  let q =
    Sim.Event_queue.of_list ~cmp [ (1.0, 0); (1.0, 1); (0.5, 2); (1.0, 3) ]
  in
  Alcotest.(check (list (pair (float 0.) int)))
    "fifo among equal times"
    [ (0.5, 2); (1.0, 0); (1.0, 1); (1.0, 3) ]
    (Sim.Event_queue.drain_sorted q)

(* Workload generator biased toward time collisions: times are drawn from
   a small pool, seq is the element's index (unique), mirroring how the
   engine numbers events. *)
let workload =
  QCheck.Gen.(
    list (int_bound 15) >|= fun times ->
    List.mapi (fun i t -> (float_of_int t /. 4., i)) times)

let arbitrary_workload =
  QCheck.make workload
    ~print:(fun evs ->
      String.concat ";"
        (List.map (fun (t, s) -> Printf.sprintf "(%g,%d)" t s) evs))

(* [cmp] is total (seq is unique), so the model is exactly a sorted list:
   [add] merges one element in, the minimum is the head. *)
let model_add m ev = List.merge cmp [ ev ] m

let prop_drains_like_model =
  QCheck.Test.make ~name:"drains in sorted-list model order" ~count:500
    arbitrary_workload (fun evs ->
      Sim.Event_queue.drain_sorted (Sim.Event_queue.of_list ~cmp evs)
      = List.sort cmp evs)

(* Random add/pop interleavings; an added element's seq is its
   operation's index, unique like the engine's event numbers. *)
let interleaving = QCheck.(list (pair bool (int_bound 15)))

let prop_interleaved_matches_model =
  (* both structures must agree on every pop, not just on full drains *)
  QCheck.Test.make ~name:"interleaved add/pop matches sorted-list model"
    ~count:300 interleaving (fun ops ->
      let q = Sim.Event_queue.create ~cmp () in
      let m = ref [] in
      List.for_all
        (fun (seq, (is_add, t)) ->
          if is_add then begin
            let ev = (float_of_int t /. 4., seq) in
            Sim.Event_queue.add q ev;
            m := model_add !m ev;
            true
          end
          else
            match (Sim.Event_queue.pop_min q, !m) with
            | None, [] -> true
            | Some x, y :: rest ->
                m := rest;
                x = y
            | _ -> false)
        (List.mapi (fun i op -> (i, op)) ops))

let prop_exn_interleaved_matches_model =
  (* Same model check as above, but through the non-allocating accessors:
     [peek_min_exn]/[pop_min_exn] guarded by [is_empty] must agree with
     the model on every operation, so the engine's hot path and the
     option API are observationally the same queue. *)
  QCheck.Test.make ~name:"exn accessors match sorted-list model" ~count:300
    interleaving (fun ops ->
      let q = Sim.Event_queue.create ~cmp () in
      let m = ref [] in
      List.for_all
        (fun (seq, (is_add, t)) ->
          if is_add then begin
            let ev = (float_of_int t /. 4., seq) in
            Sim.Event_queue.add q ev;
            m := model_add !m ev;
            true
          end
          else if Sim.Event_queue.is_empty q then !m = []
          else
            let peeked = Sim.Event_queue.peek_min_exn q in
            let popped = Sim.Event_queue.pop_min_exn q in
            match !m with
            | [] -> false
            | y :: rest ->
                m := rest;
                peeked = y && popped = y)
        (List.mapi (fun i op -> (i, op)) ops))

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "exn accessors on empty" `Quick test_exn_on_empty;
    Alcotest.test_case "basic order" `Quick test_basic_order;
    Alcotest.test_case "grows in place" `Quick test_grows_from_tiny_capacity;
    Alcotest.test_case "seq tie-break" `Quick test_ties_resolved_by_seq;
    QCheck_alcotest.to_alcotest prop_drains_like_model;
    QCheck_alcotest.to_alcotest prop_interleaved_matches_model;
    QCheck_alcotest.to_alcotest prop_exn_interleaved_matches_model;
  ]
