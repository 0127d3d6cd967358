(** Grandfathered findings (the checked-in [lint.baseline] file).

    Entries key on (rule, file, context) — not line numbers — so they
    survive unrelated edits; one entry absorbs every matching finding
    in its file.  Format: tab-separated [RULE FILE CONTEXT REASON],
    [#]-comments and blank lines ignored. *)

type entry = {
  rule : Rules.id;
  file : string;
  context : string;
  reason : string;
}

type t = entry list

val empty : t

val of_string : string -> (t, string) result
(** First malformed line wins the error. *)

val to_string : t -> string
(** Round-trips with {!of_string} (comments excepted). *)

val load : string -> (t, string) result
(** Missing file is an empty baseline, not an error. *)

val covers : t -> Rules.finding -> bool

val unused : t -> Rules.finding list -> t
(** Entries matching none of the given (pre-baseline) findings: dead
    weight the report asks the committer to delete. *)

val of_findings : ?reason:string -> Rules.finding list -> t
(** Deduplicated baseline covering the given findings, for
    [lint --update-baseline]. *)

val update : t -> Rules.finding list -> t * t
(** [update old findings] is [(merged, pruned)]: entries of [old] still
    matching a finding survive with their hand-written reasons, findings
    no surviving entry covers are grandfathered, and stale entries are
    pruned (returned so the CLI can print them). *)
