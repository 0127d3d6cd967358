(* Per-compilation-unit summaries: the exchange format between the
   phase-1 walk (Ast_scan.scan_unit, one file at a time) and the
   phase-2 whole-program fixpoints (Callgraph + Taint).

   A summary is deliberately shallow — names, sites and shapes, no
   Parsetree — so building the call graph from N summaries is pure
   list/array work and independent of the order the files were walked
   in (test_lint pins that with a qcheck permutation property). *)

type site = {
  s_line : int;  (* 1-based *)
  s_col : int;  (* 0-based *)
  s_context : string;  (* the token, e.g. "Unix.gettimeofday" *)
}

(* The R7/R8/R9-shaped hazards phase 1 records *everywhere* (not just
   lexically inside handlers); phase 2 re-examines them under hot-path
   reachability.  [reported] marks sites the syntactic rules already
   flagged, so T2 never double-reports a site R7/R8/R9 covers. *)
type hazard_kind =
  | Wildcard_arm  (* R7 shape: `_` in a protocol message match *)
  | Partial_fn  (* R8 shape: List.hd/Option.get/failwith *)
  | Alloc_sprintf  (* R9 shape: sprintf family *)
  | Alloc_append  (* R9 shape: (@) / List.append *)

type hazard = {
  h_site : site;
  h_kind : hazard_kind;
  h_reported : bool;  (* already emitted as a syntactic R7/R8/R9 *)
}

(* An arena acquire whose slot is provably dropped on some control
   path of the acquiring function. *)
type leak = {
  k_acquire : site;  (* the acquire call *)
  k_drop : site;  (* the branch arm that loses the slot *)
  k_detail : string;  (* human description of the lossy path *)
}

type def = {
  d_name : string;  (* the binding's own name *)
  d_path : string list;
      (* fully qualified: unit prefix + submodule path + name,
         e.g. ["Sim"; "Engine"; "send"] *)
  d_site : site;  (* the binding's pattern location *)
  d_entry : bool;  (* step/handle/on_* in protocol scope, or mcheck
                      successor generation: a deterministic-core root *)
  d_calls : string list;
      (* dotted identifier paths referenced from the body, sorted and
         deduplicated; resolution happens in Callgraph *)
  d_taints : site list;  (* direct nondeterminism-source reads *)
  d_hazards : hazard list;
  d_leaks : leak list;
}

type t = { file : string; defs : def list }

let qualified d = String.concat "." d.d_path

(* ------------------------------------------------------------------ *)
(* Unit naming                                                         *)
(* ------------------------------------------------------------------ *)

(* The module path a repo-relative file compiles to.  Library wrapping
   in this tree always matches the directory name (lib/sim -> Sim),
   so lib/<dir>/<m>.ml is <Dir>.<M>; anything else (bin, bench, test,
   examples, fixtures) is a bare top-level unit <M>. *)
let unit_path_of_file file =
  let base = Filename.remove_extension (Filename.basename file) in
  let m = String.capitalize_ascii base in
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ -> [ String.capitalize_ascii dir; m ]
  | _ -> [ m ]
