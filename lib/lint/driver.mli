(** Orchestration: walk, parse, scan (phase 1), whole-program analyze
    (phase 2), suppress, baseline, render.

    Reports are deterministic: directory entries are sorted before
    walking, unit summaries before call-graph numbering, and findings
    before rendering, so two runs over the same tree are byte-identical
    (the linter lints itself). *)

type warning = { w_file : string; w_line : int; w_message : string }
(** A sloppy or useless allow directive (see {!Suppress.warning}, plus
    the "suppresses nothing" case the driver's usage accounting adds).
    Warnings never fail the run. *)

type report = {
  findings : Rules.finding list;
      (** fatal: unsuppressed, unbaselined, sorted by
          file/line/col/rule *)
  advisories : Rules.finding list;
      (** findings in [test/]/[examples/] support code: reported but
          never fatal *)
  suppressed : int;
  baselined : int;
  files_scanned : int;
  errors : (string * string) list;
      (** (path, message) for unreadable or unparsable files; any entry
          fails the run *)
  unused_baseline : Baseline.entry list;
  warnings : warning list;
  callgraph_nodes : int;  (** definitions in the phase-2 call graph *)
  rules_run : int;  (** [List.length Rules.all_ids] *)
}

val ok : report -> bool
(** No fatal findings and no errors (advisories, warnings and unused
    baseline entries only warn). *)

val lint_source :
  rel:string -> source:string -> (Rules.finding list * int, string) result
(** The per-file pipeline alone (phase 1 + this file's allow-comments;
    no whole-program phase).  [rel] is the repo-relative path used for
    rule scoping and reporting.  Returns surviving findings plus the
    count silenced by allow-comments; [Error] on parse failure.
    Interfaces ([.mli]) are parsed for rot but yield no findings. *)

val default_paths : string list
(** [lib; bin; bench; examples; test] — the scanned roots.  [test/]
    and [examples/] findings are advisory. *)

val run :
  ?root:string ->
  ?baseline:Baseline.t ->
  ?paths:string list ->
  unit ->
  report
(** Lint [paths] (files or directories, repo-relative) resolved against
    [root].  [_build], dot-directories, [lint_fixtures] and [corpus]
    are never descended into (explicitly requested paths are walked
    regardless). *)

val code_lines : ?root:string -> string list -> int
(** Lines of the [.ml]/[.mli] files under [paths] (walked as {!run}
    walks them) that hold at least one token of the compiler's lexer:
    blank and comment-only lines, docstrings included, do not count. *)

val call_graph_dot : ?root:string -> ?paths:string list -> unit -> string
(** The phase-2 call graph as Graphviz dot (entry points boxed,
    reachable nodes shaded); unparsable files are skipped. *)

val find_root : unit -> string option
(** Nearest ancestor of the cwd containing a [dune-project]. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> string
