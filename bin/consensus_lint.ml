(* consensus-lint: the determinism & protocol-hygiene static analysis of
   lib/lint over the OCaml sources (DESIGN.md §5d).

     consensus-lint                  # lint the tree under the project root
     consensus-lint --list-rules
     consensus-lint --json lib/dgl
     consensus-lint --update-baseline

   A program of its own so that the cluster binary does not link the
   compiler's libraries.  Exit codes: 0 no unsuppressed findings; 1
   findings or unparsable/unreadable sources; 123..125 are cmdliner's
   usage/internal errors. *)

open Cmdliner

let lint_impl paths root json baseline_path no_baseline list_rules
    update_baseline call_graph =
  if list_rules then
    List.iter
      (fun id ->
        Format.printf "%s  %s@.    %s@."
          (Lint.Rules.id_to_string id)
          (Lint.Rules.title id) (Lint.Rules.rationale id))
      Lint.Rules.all_ids
  else begin
    let root =
      match root with
      | Some r -> r
      | None -> (
          match Lint.Driver.find_root () with Some r -> r | None -> ".")
    in
    let baseline_file =
      match baseline_path with
      | Some p -> p
      | None -> Filename.concat root "lint.baseline"
    in
    let paths =
      match paths with [] -> Lint.Driver.default_paths | ps -> ps
    in
    match call_graph with
    | Some "dot" -> print_string (Lint.Driver.call_graph_dot ~root ~paths ())
    | Some other ->
        failwith
          (Printf.sprintf "unknown --call-graph format %S (supported: dot)"
             other)
    | None ->
        let old_baseline =
          if no_baseline then Lint.Baseline.empty
          else
            match Lint.Baseline.load baseline_file with
            | Ok b -> b
            | Error msg -> failwith (Printf.sprintf "%s: %s" baseline_file msg)
        in
        let baseline =
          if update_baseline then Lint.Baseline.empty else old_baseline
        in
        let report = Lint.Driver.run ~root ~baseline ~paths () in
        if update_baseline then begin
          let entries, pruned =
            Lint.Baseline.update old_baseline report.Lint.Driver.findings
          in
          let oc = open_out_bin baseline_file in
          output_string oc
            "# Grandfathered lint findings: RULE<TAB>FILE<TAB>CONTEXT<TAB>REASON.\n\
             # Prefer fixing or a sited allow-comment at the offending line;\n\
             # entries here should be rare and justified.\n";
          if entries <> [] then
            output_string oc (Lint.Baseline.to_string entries);
          close_out oc;
          List.iter
            (fun (e : Lint.Baseline.entry) ->
              Format.printf "pruned stale entry: %s %s %S@."
                (Lint.Rules.id_to_string e.rule)
                e.file e.context)
            pruned;
          Format.printf "wrote %d entr%s to %s (%d pruned)@."
            (List.length entries)
            (if List.length entries = 1 then "y" else "ies")
            baseline_file (List.length pruned)
        end
        else begin
          if json then print_string (Lint.Driver.report_to_json report ^ "\n")
          else Lint.Driver.pp_report Format.std_formatter report;
          if not (Lint.Driver.ok report) then exit 1
        end
  end

let lint_cmd =
  let paths_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to lint, relative to the project root \
             (default: lib bin bench examples test; findings under test/ \
             and examples/ are advisory).")
  in
  let root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Project root (default: nearest ancestor with a dune-project).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout.")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline file (default: ROOT/lint.baseline).")
  in
  let no_baseline_arg =
    Arg.(
      value & flag
      & info [ "no-baseline" ]
          ~doc:"Ignore the baseline: report grandfathered findings too.")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let update_baseline_arg =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Rewrite the baseline file to cover the current findings \
             instead of reporting them: entries still matching keep \
             their reasons, stale entries are pruned (and printed).")
  in
  let call_graph_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "call-graph" ] ~docv:"FORMAT"
          ~doc:
            "Dump the phase-2 whole-program call graph instead of \
             linting.  Supported formats: dot (Graphviz; entry points \
             boxed, hot-path-reachable nodes shaded).")
  in
  Cmd.v
    (Cmd.info "consensus-lint"
       ~doc:
         "Static determinism & protocol-hygiene analysis of the OCaml \
          sources.  Per-file syntactic rules R1-R9 (wall clocks, ambient \
          Random, Hashtbl iteration order, toplevel mutable state, \
          physical equality, polymorphic compare, wildcard message arms, \
          partial functions and per-event allocation on handler paths) \
          plus whole-program analyses T1-T3 over the summarized call \
          graph (taint reaching the deterministic core, hot-path \
          reachability of R7/R8/R9 hazards, arena acquire/release \
          pairing).  Suppress per site with a 'lint: allow Rn - reason' \
          comment at the offending line."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "on unsuppressed findings or unparsable/unreadable sources."
         :: Cmd.Exit.defaults))
    Term.(
      const lint_impl $ paths_arg $ root_arg $ json_arg $ baseline_arg
      $ no_baseline_arg $ list_rules_arg $ update_baseline_arg
      $ call_graph_arg)

let () = exit (Cmd.eval lint_cmd)
