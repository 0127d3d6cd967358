(* Orchestration: walk the tree, parse every .ml/.mli, run the
   two-phase analysis, apply suppressions and the baseline, render
   human or JSON output.

   Phase 1 is per-file (Ast_scan.scan_unit: syntactic findings plus
   the unit summary); phase 2 is whole-program (Callgraph.build over
   all summaries, then Taint.analyze).  Suppression comments apply to
   both phases' findings; the baseline applies to error-severity
   findings only.

   Severity: findings in test/ and examples/ support code (but not in
   the linter's own lint_fixtures corpus) are *advisory* — reported,
   never fatal — so fixture-adjacent helpers cannot rot unseen without
   turning every experiment script into a gate.

   Determinism note (the linter lints itself): directory entries are
   sorted before walking, summaries are sorted before the call graph
   is numbered, and findings/warnings are sorted before reporting, so
   two runs over the same tree are byte-identical regardless of
   readdir order. *)

type warning = { w_file : string; w_line : int; w_message : string }

type report = {
  findings : Rules.finding list;  (* fatal: unsuppressed, unbaselined *)
  advisories : Rules.finding list;  (* test//examples/: reported, exit 0 *)
  suppressed : int;  (* silenced by allow-comments *)
  baselined : int;  (* silenced by lint.baseline entries *)
  files_scanned : int;
  errors : (string * string) list;  (* path, message: unreadable/unparsable *)
  unused_baseline : Baseline.entry list;
  warnings : warning list;  (* sloppy or useless allow directives *)
  callgraph_nodes : int;
  rules_run : int;
}

let ok r = r.findings = [] && r.errors = []

(* ------------------------------------------------------------------ *)
(* Parsing one file                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_error_message path = function
  | Syntaxerr.Error _ -> Printf.sprintf "%s: syntax error" path
  | exn -> Printf.sprintf "%s: %s" path (Printexc.to_string exn)

(* Phase 1 on one file.  [rel] is the repo-relative path used for
   scoping and reporting; [source] is the file contents. *)
let scan_file ~rel ~source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf rel;
  if Filename.check_suffix rel ".mli" then
    (* interfaces carry no expressions; parse only to catch rot *)
    match Parse.interface lexbuf with
    | _ -> Ok ([], None, [], [])
    | exception exn -> Error (parse_error_message rel exn)
  else
    match Parse.implementation lexbuf with
    | structure ->
        let scope = Ast_scan.scope_of_path rel in
        let raw, summary = Ast_scan.scan_unit ~scope structure in
        let allows, warns = Suppress.scan_full source in
        Ok (raw, Some summary, allows, warns)
    | exception exn -> Error (parse_error_message rel exn)

(* The per-file pipeline alone (no whole-program phase): the syntactic
   findings surviving this file's allow-comments, plus the suppressed
   count.  Kept for tests and single-file tooling. *)
let lint_source ~rel ~source =
  match scan_file ~rel ~source with
  | Error _ as e -> e
  | Ok (raw, _, allows, _) ->
      let kept, dropped =
        List.partition (fun f -> not (Suppress.suppressed allows f)) raw
      in
      Ok (kept, List.length dropped)

(* ------------------------------------------------------------------ *)
(* Walking                                                             *)
(* ------------------------------------------------------------------ *)

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

(* Directories never descended into: build artifacts, dot-dirs, the
   linter's own deliberately-bad corpus and the fuzz replay corpus.
   (An explicitly requested path is walked regardless — that is how
   the fixture tests run.) *)
let skip_dir name =
  name = "_build" || name = "lint_fixtures" || name = "corpus"
  || (name <> "" && name.[0] = '.')

(* (absolute-or-cwd-relative path on disk, repo-relative path) pairs,
   lexicographically sorted for deterministic reports. *)
let rec collect acc ~disk ~rel =
  if Sys.is_directory disk then
    Sys.readdir disk |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc
           else
             collect acc
               ~disk:(Filename.concat disk name)
               ~rel:(if rel = "" then name else rel ^ "/" ^ name))
         acc
  else if is_source disk then (disk, rel) :: acc
  else acc

let find_root () =
  let rec go dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go (Sys.getcwd ())

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let default_paths = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let contains_sub needle hay =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* advisory: support code around the tests and examples — except the
   lint fixtures, whose whole point is to fail *)
let is_advisory rel =
  (String.starts_with ~prefix:"test/" rel
  || String.starts_with ~prefix:"examples/" rel)
  && not (contains_sub "lint_fixtures" rel)

let gather_files ~root paths =
  let files, missing =
    List.fold_left
      (fun (files, missing) p ->
        let disk = if root = "." then p else Filename.concat root p in
        if Sys.file_exists disk then
          ( collect files ~disk
              ~rel:(String.map (fun c -> if c = '\\' then '/' else c) p),
            missing )
        else (files, (p, "no such file or directory") :: missing))
      ([], []) paths
  in
  (List.sort (fun (_, a) (_, b) -> String.compare a b) files, missing)

(* Lines holding at least one token, so blank lines and comment-only
   lines (docstrings included) do not count.  Tokens arrive in source
   order; a token spanning lines (a multi-line string) counts each. *)
let code_lines_of_source source =
  let lexbuf = Lexing.from_string source in
  Lexer.init ();
  let rec go ~last count =
    match Lexer.token lexbuf with
    | Parser.EOF -> count
    | _ ->
        let first = max lexbuf.lex_start_p.pos_lnum (last + 1)
        and final = lexbuf.lex_curr_p.pos_lnum in
        go ~last:(max last final) (count + max 0 (final - first + 1))
  in
  go ~last:0 0

let code_lines ?(root = ".") paths =
  let files, _ = gather_files ~root paths in
  List.fold_left
    (fun acc (disk, _) -> acc + code_lines_of_source (read_file disk))
    0 files

(* [paths] are repo-relative; [root] is the directory they resolve
   against. *)
let run ?(root = ".") ?(baseline = Baseline.empty) ?(paths = default_paths) ()
    =
  let files, missing = gather_files ~root paths in
  let scanned = ref [] and errors = ref missing in
  List.iter
    (fun (disk, rel) ->
      match scan_file ~rel ~source:(read_file disk) with
      | Ok (raw, summary, allows, warns) ->
          scanned := (rel, raw, summary, allows, warns) :: !scanned
      | Error msg -> errors := (rel, msg) :: !errors
      | exception Sys_error msg -> errors := (rel, msg) :: !errors)
    files;
  let scanned = List.rev !scanned in
  (* phase 2: the whole-program analyses over all unit summaries *)
  let graph =
    Callgraph.build
      (List.filter_map (fun (_, _, s, _, _) -> s) scanned)
  in
  let phase2 = Taint.analyze graph in
  let allows_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (rel, _, _, allows, _) -> Hashtbl.replace tbl rel allows)
      scanned;
    fun rel -> Option.value ~default:[] (Hashtbl.find_opt tbl rel)
  in
  let raw_all =
    List.concat_map (fun (_, raw, _, _, _) -> raw) scanned @ phase2
  in
  let kept, dropped =
    List.partition
      (fun (f : Rules.finding) ->
        not (Suppress.suppressed (allows_of f.file) f))
      raw_all
  in
  (* allow-comments that silenced nothing at all are themselves a
     smell.  Warnings are collected for gate-severity files only:
     test support code legitimately embeds directive-shaped strings
     (test_lint.ml builds sources containing them). *)
  let warnings =
    List.concat_map
      (fun (rel, _, _, allows, warns) ->
        if is_advisory rel then []
        else
        List.map
          (fun (w : Suppress.warning) ->
            { w_file = rel; w_line = w.Suppress.w_line; w_message = w.Suppress.w_message })
          warns
        @ List.filter_map
            (fun (a : Suppress.allow) ->
              if
                List.exists
                  (fun (f : Rules.finding) ->
                    String.equal f.file rel && Suppress.covers a f)
                  raw_all
              then None
              else
                Some
                  {
                    w_file = rel;
                    w_line = a.Suppress.line;
                    w_message =
                      Printf.sprintf
                        "'lint: allow %s' suppresses nothing — delete it"
                        (String.concat " "
                           (List.map Rules.id_to_string a.Suppress.rules));
                  })
            allows)
      scanned
    |> List.sort (fun a b ->
           let c = String.compare a.w_file b.w_file in
           if c <> 0 then c
           else
             let c = Int.compare a.w_line b.w_line in
             if c <> 0 then c else String.compare a.w_message b.w_message)
  in
  let all = List.sort Rules.compare_findings kept in
  let fatal, advisories =
    List.partition (fun (f : Rules.finding) -> not (is_advisory f.file)) all
  in
  let kept_fatal, baselined =
    List.partition (fun f -> not (Baseline.covers baseline f)) fatal
  in
  {
    findings = kept_fatal;
    advisories;
    suppressed = List.length dropped;
    baselined = List.length baselined;
    files_scanned = List.length files;
    errors = List.rev !errors;
    unused_baseline = Baseline.unused baseline fatal;
    warnings;
    callgraph_nodes = Callgraph.node_count graph;
    rules_run = List.length Rules.all_ids;
  }

(* The call graph alone, for [--call-graph dot]: same walk, no rule
   evaluation, unparsable files skipped. *)
let call_graph_dot ?(root = ".") ?(paths = default_paths) () =
  let files, _ = gather_files ~root paths in
  let summaries =
    List.filter_map
      (fun (disk, rel) ->
        match scan_file ~rel ~source:(read_file disk) with
        | Ok (_, summary, _, _) -> summary
        | Error _ | (exception Sys_error _) -> None)
      files
  in
  let g = Callgraph.build summaries in
  Format.asprintf "%a" Callgraph.to_dot g

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_report fmt r =
  List.iter (fun f -> Format.fprintf fmt "%a@." Rules.pp_finding f) r.findings;
  List.iter
    (fun f -> Format.fprintf fmt "advisory: %a@." Rules.pp_finding f)
    r.advisories;
  List.iter
    (fun (path, msg) -> Format.fprintf fmt "%s: ERROR: %s@." path msg)
    r.errors;
  List.iter
    (fun w ->
      Format.fprintf fmt "%s:%d: warning: %s@." w.w_file w.w_line w.w_message)
    r.warnings;
  List.iter
    (fun (e : Baseline.entry) ->
      Format.fprintf fmt
        "lint.baseline: unused entry %s %s %S — delete it@."
        (Rules.id_to_string e.rule)
        e.file e.context)
    r.unused_baseline;
  Format.fprintf fmt
    "lint: %d file%s, %d finding%s (%d advisory, %d suppressed, %d \
     baselined), %d graph nodes%s@."
    r.files_scanned
    (if r.files_scanned = 1 then "" else "s")
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.advisories) r.suppressed r.baselined r.callgraph_nodes
    (if ok r then ": ok" else "")

let finding_to_json (f : Rules.finding) =
  let open Sim.Json in
  let chain =
    match f.chain with
    | [] -> []
    | chain -> [ ("chain", Arr (List.map (fun s -> Str s) chain)) ]
  in
  Obj
    ([
       ("rule", Str (Rules.id_to_string f.rule));
       ("file", Str f.file);
       ("line", int f.line);
       ("col", int f.col);
       ("context", Str f.context);
       ("message", Str f.message);
     ]
    @ chain)

let report_to_json r =
  let open Sim.Json in
  let warning w =
    Obj
      [
        ("file", Str w.w_file);
        ("line", int w.w_line);
        ("message", Str w.w_message);
      ]
  in
  let error (path, msg) = Obj [ ("file", Str path); ("message", Str msg) ] in
  print
    (Obj
       [
         ("ok", Bool (ok r));
         ("files_scanned", int r.files_scanned);
         ("suppressed", int r.suppressed);
         ("baselined", int r.baselined);
         ("callgraph_nodes", int r.callgraph_nodes);
         ("rules_run", int r.rules_run);
         ("findings", Arr (List.map finding_to_json r.findings));
         ("advisories", Arr (List.map finding_to_json r.advisories));
         ("warnings", Arr (List.map warning r.warnings));
         ("errors", Arr (List.map error r.errors));
       ])
