(** Per-compilation-unit summaries: what the phase-1 walk extracts
    from each file and the phase-2 whole-program analyses consume.

    Summaries are shallow (names, sites, shapes — no Parsetree), so
    phase 2 is a pure function of the summary *set*: building the call
    graph is independent of the order files were walked in. *)

type site = {
  s_line : int;  (** 1-based *)
  s_col : int;  (** 0-based *)
  s_context : string;  (** the token at the site *)
}

type hazard_kind =
  | Wildcard_arm  (** R7 shape: [_] arm in a protocol message match *)
  | Partial_fn  (** R8 shape: [List.hd]/[Option.get]/[failwith] *)
  | Alloc_sprintf  (** R9 shape: the sprintf family *)
  | Alloc_append  (** R9 shape: [(@)] / [List.append] *)

type hazard = {
  h_site : site;
  h_kind : hazard_kind;
  h_reported : bool;
      (** already emitted as a syntactic R7/R8/R9 finding; T2 skips it *)
}

type leak = {
  k_acquire : site;  (** the arena-acquire call *)
  k_drop : site;  (** the branch arm that drops the slot *)
  k_detail : string;
}

type def = {
  d_name : string;
  d_path : string list;
      (** fully qualified: unit prefix + submodule path + name *)
  d_site : site;
  d_entry : bool;
      (** a deterministic-core root: step/handle/on_* in protocol
          scope, or mcheck successor generation *)
  d_calls : string list;  (** referenced dotted paths, sorted, deduped *)
  d_taints : site list;  (** direct nondeterminism-source reads *)
  d_hazards : hazard list;
  d_leaks : leak list;
}

type t = { file : string; defs : def list }

val qualified : def -> string
(** The dotted rendering of [d_path]. *)

val unit_path_of_file : string -> string list
(** The module path a repo-relative file compiles to:
    [lib/<dir>/<m>.ml] is [<Dir>.<M>] (library wrapping matches the
    directory name in this tree), anything else a bare [<M>]. *)
