(* The linter's own test suite: fixture corpus, suppression comments,
   baseline round-trips, and the driver walk.

   Fixtures under [lint_fixtures/] are parsed, never compiled: each
   [rN_bad.ml] trips exactly rule RN, each [rN_good.ml] is the clean
   rewrite of the same code.  The path substring "lint_fixtures" arms
   every rule regardless of which scope it normally lives in. *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* cwd is test/ under `dune runtest` but the repo root under
   `dune exec test/test_main.exe`; accept both. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let lint_fixture name =
  match
    Lint.Driver.lint_source ~rel:(fixture name)
      ~source:(read_file (fixture name))
  with
  | Ok (findings, suppressed) -> (findings, suppressed)
  | Error msg -> Alcotest.failf "%s failed to parse: %s" name msg

let rule = Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Lint.Rules.id_to_string r))
    (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

(* (rule, findings expected from rN_bad.ml) *)
let corpus =
  [
    (Lint.Rules.R1, 3);
    (Lint.Rules.R2, 3);
    (Lint.Rules.R3, 3);
    (Lint.Rules.R4, 5);
    (Lint.Rules.R5, 3);
    (Lint.Rules.R6, 4);
    (Lint.Rules.R7, 1);
    (Lint.Rules.R8, 4);
    (Lint.Rules.R9, 4);
  ]

let test_bad_fixtures () =
  List.iter
    (fun (r, expected) ->
      let name =
        Printf.sprintf "%s_bad.ml"
          (String.lowercase_ascii (Lint.Rules.id_to_string r))
      in
      let findings, _ = lint_fixture name in
      Alcotest.(check int)
        (name ^ " finding count") expected (List.length findings);
      List.iter
        (fun (f : Lint.Rules.finding) ->
          Alcotest.check rule (name ^ " rule") r f.rule;
          Alcotest.(check string) (name ^ " file") (fixture name) f.file;
          Alcotest.(check bool) (name ^ " line positive") true (f.line > 0))
        findings)
    corpus

let test_good_fixtures () =
  List.iter
    (fun (r, _) ->
      let name =
        Printf.sprintf "%s_good.ml"
          (String.lowercase_ascii (Lint.Rules.id_to_string r))
      in
      let findings, suppressed = lint_fixture name in
      Alcotest.(check int) (name ^ " findings") 0 (List.length findings);
      Alcotest.(check int) (name ^ " suppressed") 0 suppressed)
    corpus

let test_findings_sorted () =
  List.iter
    (fun (r, _) ->
      let name =
        Printf.sprintf "%s_bad.ml"
          (String.lowercase_ascii (Lint.Rules.id_to_string r))
      in
      let findings, _ = lint_fixture name in
      Alcotest.(check bool)
        (name ^ " sorted") true
        (List.sort Lint.Rules.compare_findings findings = findings))
    corpus

(* ------------------------------------------------------------------ *)
(* Rule ids                                                            *)
(* ------------------------------------------------------------------ *)

let test_id_round_trip () =
  List.iter
    (fun r ->
      Alcotest.(check (option rule))
        "to_string/of_string" (Some r)
        (Lint.Rules.id_of_string (Lint.Rules.id_to_string r));
      Alcotest.(check (option rule))
        "case-insensitive" (Some r)
        (Lint.Rules.id_of_string
           (String.lowercase_ascii (Lint.Rules.id_to_string r))))
    Lint.Rules.all_ids;
  Alcotest.(check (option rule)) "junk" None (Lint.Rules.id_of_string "R10");
  Alcotest.(check int) "twelve rules" 12 (List.length Lint.Rules.all_ids)

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                *)
(* ------------------------------------------------------------------ *)

let test_suppression_fixture () =
  let findings, suppressed = lint_fixture "suppressed.ml" in
  Alcotest.(check int) "findings" 0 (List.length findings);
  Alcotest.(check int) "suppressed" 2 suppressed

let test_suppress_scan () =
  let source = read_file (fixture "suppressed.ml") in
  let allows = Lint.Suppress.scan source in
  Alcotest.(check int) "two allow comments" 2 (List.length allows);
  let a3 = List.nth allows 0 and a5 = List.nth allows 1 in
  Alcotest.(check (list rule)) "first rules" [ Lint.Rules.R3 ] a3.rules;
  Alcotest.(check (list rule)) "second rules" [ Lint.Rules.R1 ] a5.rules;
  Alcotest.(check bool) "reasons captured" true
    (a3.reason <> "" && a5.reason <> "")

let test_suppress_wrong_rule () =
  (* an allow for a different rule does not silence the finding *)
  let source =
    "let total tbl =\n\
    \  (* lint: allow R1 — wrong rule on purpose *)\n\
    \  Hashtbl.fold (fun _ v acc -> acc + v) tbl 0\n"
  in
  match Lint.Driver.lint_source ~rel:"lib/lint_fixtures/x.ml" ~source with
  | Ok (findings, suppressed) ->
      Alcotest.(check int) "finding survives" 1 (List.length findings);
      Alcotest.(check int) "nothing suppressed" 0 suppressed
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let entry : Lint.Baseline.entry =
  {
    rule = Lint.Rules.R1;
    file = "bench/main.ml";
    context = "Unix.gettimeofday";
    reason = "benchmarks measure wall time";
  }

let test_baseline_round_trip () =
  let t = [ entry; { entry with rule = Lint.Rules.R3; context = "Hashtbl.fold" } ] in
  match Lint.Baseline.of_string (Lint.Baseline.to_string t) with
  | Ok t' ->
      Alcotest.(check int) "entries survive" (List.length t) (List.length t');
      Alcotest.(check bool) "identical" true (t = t')
  | Error msg -> Alcotest.fail msg

let test_baseline_rejects_junk () =
  match Lint.Baseline.of_string "R1 only-two-fields\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ()

let test_baseline_covers () =
  let hit =
    Lint.Rules.finding ~rule:Lint.Rules.R1 ~file:"bench/main.ml" ~line:42
      ~col:0 ~context:"Unix.gettimeofday" ~message:"" ()
  in
  let miss_file = { hit with file = "lib/sim/engine.ml" } in
  let miss_rule = { hit with rule = Lint.Rules.R2 } in
  Alcotest.(check bool) "covers" true (Lint.Baseline.covers [ entry ] hit);
  Alcotest.(check bool) "other file" false
    (Lint.Baseline.covers [ entry ] miss_file);
  Alcotest.(check bool) "other rule" false
    (Lint.Baseline.covers [ entry ] miss_rule);
  Alcotest.(check int) "used entry" 0
    (List.length (Lint.Baseline.unused [ entry ] [ hit ]));
  Alcotest.(check int) "unused entry" 1
    (List.length (Lint.Baseline.unused [ entry ] [ miss_file ]))

let test_baseline_of_findings () =
  let f line =
    Lint.Rules.finding ~rule:Lint.Rules.R1 ~file:"bench/main.ml" ~line ~col:0
      ~context:"Unix.gettimeofday" ~message:"" ()
  in
  let t = Lint.Baseline.of_findings [ f 10; f 90 ] in
  Alcotest.(check int) "dedup on (rule,file,context)" 1 (List.length t);
  Alcotest.(check bool) "covers both sites" true
    (Lint.Baseline.covers t (f 10) && Lint.Baseline.covers t (f 90))

let test_baseline_update_prunes () =
  let keep = entry in
  let stale : Lint.Baseline.entry =
    { rule = Lint.Rules.R3; file = "lib/gone.ml"; context = "Hashtbl.iter";
      reason = "module was deleted" }
  in
  let still =
    Lint.Rules.finding ~rule:keep.rule ~file:keep.file ~line:7 ~col:0
      ~context:keep.context ~message:"" ()
  in
  let fresh =
    Lint.Rules.finding ~rule:Lint.Rules.R2 ~file:"lib/new.ml" ~line:3 ~col:0
      ~context:"Random.int" ~message:"" ()
  in
  let merged, pruned = Lint.Baseline.update [ keep; stale ] [ still; fresh ] in
  Alcotest.(check int) "one stale entry pruned" 1 (List.length pruned);
  Alcotest.(check bool) "pruned is the stale one" true
    (List.hd pruned = stale);
  Alcotest.(check int) "merged size" 2 (List.length merged);
  Alcotest.(check bool) "surviving entry keeps its reason" true
    (List.exists
       (fun (e : Lint.Baseline.entry) ->
         e.context = keep.context && e.reason = keep.reason)
       merged);
  Alcotest.(check bool) "fresh finding grandfathered" true
    (Lint.Baseline.covers merged fresh);
  (* the merged baseline must survive the file format round trip *)
  match Lint.Baseline.of_string (Lint.Baseline.to_string merged) with
  | Ok t' -> Alcotest.(check bool) "round trip" true (merged = t')
  | Error msg -> Alcotest.fail msg

let test_baseline_load_missing () =
  match Lint.Baseline.load (fixture "no-such-baseline") with
  | Ok t -> Alcotest.(check int) "missing file is empty" 0 (List.length t)
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* (rule, findings expected from the tN_bad/ multi-file trees) *)
let t_corpus =
  [ (Lint.Rules.T1, 1); (Lint.Rules.T2, 3); (Lint.Rules.T3, 1) ]

let test_driver_walk () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture_dir ] () in
  Alcotest.(check int) "all fixtures scanned" 34 r.files_scanned;
  Alcotest.(check bool) "bad fixtures fail the run" false (Lint.Driver.ok r);
  Alcotest.(check int) "errors" 0 (List.length r.errors);
  Alcotest.(check int) "suppressed.ml + t1_clock.ml counted" 3 r.suppressed;
  Alcotest.(check int) "suppress_warn.ml warnings" 6 (List.length r.warnings);
  Alcotest.(check bool) "call graph has nodes" true (r.callgraph_nodes > 0);
  Alcotest.(check int) "rules run" 12 r.rules_run;
  let expected =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (corpus @ t_corpus)
  in
  Alcotest.(check int) "total findings" expected (List.length r.findings);
  List.iter
    (fun (rl, n) ->
      Alcotest.(check int)
        ("per-rule " ^ Lint.Rules.id_to_string rl)
        n
        (List.length
           (List.filter
              (fun (f : Lint.Rules.finding) -> f.rule = rl)
              r.findings)))
    (corpus @ t_corpus)

let test_driver_baseline_absorbs () =
  let baseline =
    Lint.Baseline.of_findings ~reason:"fixture"
      (Lint.Driver.run ~root:"." ~paths:[ fixture_dir ] ()).findings
  in
  let r = Lint.Driver.run ~root:"." ~baseline ~paths:[ fixture_dir ] () in
  Alcotest.(check bool) "baselined run is ok" true (Lint.Driver.ok r);
  Alcotest.(check int) "no unused entries" 0 (List.length r.unused_baseline);
  Alcotest.(check bool) "findings became baselined" true (r.baselined > 0)

let test_driver_missing_path () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture "absent.ml" ] () in
  Alcotest.(check bool) "missing path is an error" false (Lint.Driver.ok r)

let test_driver_parse_error () =
  match Lint.Driver.lint_source ~rel:"x.ml" ~source:"let let let" with
  | Ok _ -> Alcotest.fail "syntax error accepted"
  | Error msg ->
      Alcotest.(check bool) "names the file" true
        (String.length msg > 0)

let test_driver_mli_parse_only () =
  match Lint.Driver.lint_source ~rel:"lib/lint_fixtures/x.mli" ~source:"val stamp : unit -> float\n" with
  | Ok (findings, suppressed) ->
      Alcotest.(check int) "no findings from an interface" 0
        (List.length findings);
      Alcotest.(check int) "no suppressions" 0 suppressed
  | Error msg -> Alcotest.fail msg

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_json_shape () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture_dir ] () in
  let json = Lint.Driver.report_to_json r in
  Alcotest.(check bool) "ok:false" true (contains json "\"ok\":false");
  Alcotest.(check bool) "findings array" true (contains json "\"findings\":[");
  Alcotest.(check bool) "rule tag" true (contains json "\"rule\":\"R1\"");
  Alcotest.(check bool) "taint chain array" true
    (contains json "\"chain\":[\"T1_proto.handle_msg\"");
  Alcotest.(check bool) "warnings array" true (contains json "\"warnings\":[");
  Alcotest.(check bool) "graph node count" true
    (contains json "\"callgraph_nodes\":");
  (match Sim.Json.parse json with
  | Error msg -> Alcotest.fail ("report is not JSON: " ^ msg)
  | Ok j ->
      Alcotest.(check (result int string))
        "one array element per finding"
        (Ok (List.length r.findings))
        (Result.map List.length
           (Result.bind (Sim.Json.member "findings" j) Sim.Json.to_list)));
  let clean = Lint.Driver.run ~root:"." ~paths:[ fixture "r1_good.ml" ] () in
  Alcotest.(check bool) "ok:true" true
    (let j = Lint.Driver.report_to_json clean in
     String.length j > 10 && String.sub j 0 11 = "{\"ok\":true,")

(* ------------------------------------------------------------------ *)
(* Whole-program analyses (T1-T3) on the multi-file fixture trees      *)
(* ------------------------------------------------------------------ *)

let chain_t = Alcotest.(list string)

let test_t1_fixture () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture "t1_bad" ] () in
  Alcotest.(check bool) "t1_bad fails" false (Lint.Driver.ok r);
  Alcotest.(check int) "one finding" 1 (List.length r.findings);
  let f = List.hd r.findings in
  Alcotest.check rule "rule" Lint.Rules.T1 f.rule;
  Alcotest.(check string) "site is the clock read"
    (fixture "t1_bad/t1_clock.ml") f.file;
  Alcotest.check chain_t "witness chain, entry point first"
    [ "T1_proto.handle_msg"; "T1_helper.jitter"; "T1_clock.sample" ]
    f.chain;
  (* the sited R1 allow in t1_clock.ml silences the lexical rule but
     must NOT stop the cross-module taint finding *)
  Alcotest.(check int) "sited R1 allow still honored" 1 r.suppressed;
  let g = Lint.Driver.run ~root:"." ~paths:[ fixture "t1_good" ] () in
  Alcotest.(check bool) "t1_good is clean" true (Lint.Driver.ok g);
  Alcotest.(check int) "t1_good findings" 0 (List.length g.findings)

let test_t2_fixture () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture "t2_bad" ] () in
  Alcotest.(check bool) "t2_bad fails" false (Lint.Driver.ok r);
  Alcotest.(check int) "three findings" 3 (List.length r.findings);
  List.iter
    (fun (f : Lint.Rules.finding) ->
      Alcotest.check rule "rule" Lint.Rules.T2 f.rule;
      Alcotest.(check string) "hazards sit in the helper module"
        (fixture "t2_bad/t2_depths.ml") f.file;
      Alcotest.(check bool) "chain is rooted at the step entry" true
        (match f.chain with "T2_steps.step" :: _ -> true | _ -> false))
    r.findings;
  let g = Lint.Driver.run ~root:"." ~paths:[ fixture "t2_good" ] () in
  Alcotest.(check bool) "t2_good is clean" true (Lint.Driver.ok g);
  Alcotest.(check int) "t2_good findings" 0 (List.length g.findings)

let test_t3_fixture () =
  let r = Lint.Driver.run ~root:"." ~paths:[ fixture "t3_bad" ] () in
  Alcotest.(check bool) "t3_bad fails" false (Lint.Driver.ok r);
  Alcotest.(check int) "one finding" 1 (List.length r.findings);
  let f = List.hd r.findings in
  Alcotest.check rule "rule" Lint.Rules.T3 f.rule;
  Alcotest.(check string) "leak is at the drop site"
    (fixture "t3_bad/t3_route.ml") f.file;
  Alcotest.(check bool) "message names the acquire" true
    (contains f.message "acquires a slot but");
  let g = Lint.Driver.run ~root:"." ~paths:[ fixture "t3_good" ] () in
  Alcotest.(check bool) "t3_good is clean" true (Lint.Driver.ok g);
  Alcotest.(check int) "t3_good findings" 0 (List.length g.findings)

(* ------------------------------------------------------------------ *)
(* Suppression-directive warnings                                      *)
(* ------------------------------------------------------------------ *)

let test_suppress_warn_fixture () =
  let r =
    Lint.Driver.run ~root:"." ~paths:[ fixture "suppress_warn.ml" ] ()
  in
  Alcotest.(check bool) "warnings never fail the run" true (Lint.Driver.ok r);
  Alcotest.(check int) "no findings" 0 (List.length r.findings);
  Alcotest.(check int) "six warnings" 6 (List.length r.warnings);
  let has needle =
    List.exists
      (fun (w : Lint.Driver.warning) -> contains w.w_message needle)
      r.warnings
  in
  Alcotest.(check bool) "bundled rules" true (has "bundles 2 rules");
  Alcotest.(check bool) "unknown rule" true (has "unknown rule R42");
  Alcotest.(check bool) "useless allow" true (has "suppresses nothing");
  Alcotest.(check bool) "double marker" true
    (has "multiple 'lint: allow' markers")

let test_suppress_scan_full () =
  let _, warns =
    Lint.Suppress.scan_full (read_file (fixture "suppress_warn.ml"))
  in
  (* driver-side usage accounting adds the three "suppresses nothing"
     warnings; the lexical scan alone reports the three shape problems *)
  Alcotest.(check (list int)) "warning lines" [ 4; 7; 13 ]
    (List.map (fun (w : Lint.Suppress.warning) -> w.w_line) warns);
  let clean_allows, clean_warns =
    Lint.Suppress.scan_full (read_file (fixture "suppressed.ml"))
  in
  Alcotest.(check int) "well-formed file warns nowhere" 0
    (List.length clean_warns);
  Alcotest.(check int) "well-formed allows still parse" 2
    (List.length clean_allows)

(* ------------------------------------------------------------------ *)
(* Severity scoping: test//examples/ trees are advisory               *)
(* ------------------------------------------------------------------ *)

let test_advisory_scope () =
  let tmp = Filename.temp_file "lint_advisory" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Sys.mkdir (Filename.concat tmp "test") 0o755;
  let file = Filename.concat (Filename.concat tmp "test") "adv.ml" in
  let oc = open_out file in
  output_string oc "let roll () = Random.int 6\n";
  close_out oc;
  let r = Lint.Driver.run ~root:tmp ~paths:[ "test" ] () in
  Sys.remove file;
  Sys.rmdir (Filename.concat tmp "test");
  Sys.rmdir tmp;
  Alcotest.(check bool) "advisory findings do not fail" true
    (Lint.Driver.ok r);
  Alcotest.(check int) "nothing fatal" 0 (List.length r.findings);
  Alcotest.(check int) "one advisory" 1 (List.length r.advisories);
  Alcotest.check rule "advisory rule" Lint.Rules.R2
    (List.hd r.advisories).rule

(* ------------------------------------------------------------------ *)
(* Determinism: phase 2 is invariant under summary-extraction order    *)
(* ------------------------------------------------------------------ *)

let wp_files =
  [
    "t1_bad/t1_clock.ml"; "t1_bad/t1_helper.ml"; "t1_bad/t1_proto.ml";
    "t2_bad/t2_depths.ml"; "t2_bad/t2_steps.ml";
    "t3_bad/t3_pool.ml"; "t3_bad/t3_route.ml";
  ]

let summary_of_fixture name =
  let rel = fixture name in
  let structure = Parse.implementation (Lexing.from_string (read_file rel)) in
  snd (Lint.Ast_scan.scan_unit ~scope:(Lint.Ast_scan.scope_of_path rel)
         structure)

let wp_summaries = lazy (List.map summary_of_fixture wp_files)

(* deterministic permutation from qcheck's int list: sort by (key, index) *)
let permute keys xs =
  let nk = List.length keys in
  let key i = if nk = 0 then 0 else List.nth keys (i mod nk) in
  let cmp (a1, a2) (b1, b2) =
    match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c
  in
  xs
  |> List.mapi (fun i x -> ((key i, i), x))
  |> List.sort (fun (a, _) (b, _) -> cmp a b)
  |> List.map snd

let prop_order_invariant =
  QCheck.Test.make ~name:"phase 2 is invariant under file ordering" ~count:60
    QCheck.(list small_nat)
    (fun keys ->
      let summaries = Lazy.force wp_summaries in
      let base_graph = Lint.Callgraph.build summaries in
      let base = Lint.Taint.analyze base_graph in
      let g = Lint.Callgraph.build (permute keys summaries) in
      Lint.Callgraph.node_count g = Lint.Callgraph.node_count base_graph
      && Lint.Taint.analyze g = base)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "bad fixtures trip their rule" `Quick test_bad_fixtures;
    Alcotest.test_case "good fixtures are clean" `Quick test_good_fixtures;
    Alcotest.test_case "findings are sorted" `Quick test_findings_sorted;
    Alcotest.test_case "rule ids round-trip" `Quick test_id_round_trip;
    Alcotest.test_case "suppression fixture" `Quick test_suppression_fixture;
    Alcotest.test_case "suppress scan" `Quick test_suppress_scan;
    Alcotest.test_case "allow for wrong rule" `Quick test_suppress_wrong_rule;
    Alcotest.test_case "baseline round-trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "baseline rejects junk" `Quick test_baseline_rejects_junk;
    Alcotest.test_case "baseline covers" `Quick test_baseline_covers;
    Alcotest.test_case "baseline of_findings" `Quick test_baseline_of_findings;
    Alcotest.test_case "baseline update prunes stale" `Quick
      test_baseline_update_prunes;
    Alcotest.test_case "baseline missing file" `Quick test_baseline_load_missing;
    Alcotest.test_case "driver walks the corpus" `Quick test_driver_walk;
    Alcotest.test_case "baseline absorbs the corpus" `Quick
      test_driver_baseline_absorbs;
    Alcotest.test_case "missing path errors" `Quick test_driver_missing_path;
    Alcotest.test_case "parse error reported" `Quick test_driver_parse_error;
    Alcotest.test_case "mli is parse-only" `Quick test_driver_mli_parse_only;
    Alcotest.test_case "json report shape" `Quick test_json_shape;
    Alcotest.test_case "T1 cross-module taint" `Quick test_t1_fixture;
    Alcotest.test_case "T2 hot-path reachability" `Quick test_t2_fixture;
    Alcotest.test_case "T3 arena pairing" `Quick test_t3_fixture;
    Alcotest.test_case "sloppy allow directives warn" `Quick
      test_suppress_warn_fixture;
    Alcotest.test_case "suppress scan_full lines" `Quick
      test_suppress_scan_full;
    Alcotest.test_case "test/ tree is advisory" `Quick test_advisory_scope;
    QCheck_alcotest.to_alcotest prop_order_invariant;
  ]
