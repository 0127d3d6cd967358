(* Numfmt.add_int must write the bytes of string_of_int: protocol notes
   built with it land in traces and their JSONL exports. *)

let int_str n =
  let buf = Buffer.create 24 in
  Sim.Numfmt.add_int buf n;
  Buffer.contents buf

let test_edge_ints () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "add_int %d" n)
        (string_of_int n) (int_str n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; 1000000000; max_int; min_int; min_int + 1 ]

let prop_int_matches =
  QCheck.Test.make ~count:2000 ~name:"add_int = string_of_int" QCheck.int
    (fun n -> String.equal (string_of_int n) (int_str n))

let prop_prefixed_matches =
  QCheck.Test.make ~count:500 ~name:"prefixed p n = p ^ string_of_int n"
    QCheck.(pair small_printable_string int)
    (fun (p, n) -> String.equal (p ^ string_of_int n) (Sim.Numfmt.prefixed p n))

let suite =
  [
    Alcotest.test_case "edge ints match string_of_int" `Quick test_edge_ints;
    QCheck_alcotest.to_alcotest prop_int_matches;
    QCheck_alcotest.to_alcotest prop_prefixed_matches;
  ]
