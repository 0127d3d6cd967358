(* The Parsetree pass: one Ast_iterator walk per file.

   The walk does two jobs at once.  It evaluates the nine syntactic
   rules (R1-R9) exactly as before — conservative patterns over names
   and shapes, scoped by the file's path — and it extracts the file's
   Summary.t: every module-level definition with the identifier paths
   it references, its direct nondeterminism-source reads, its
   R7/R8/R9-shaped hazard sites, and any arena acquire whose slot a
   control path provably drops.  Phase 2 (Callgraph + Taint) turns the
   summaries into the whole-program T1/T2/T3 findings.

   Everything here is syntactic — no typing, no cmt files — so each
   rule is a conservative pattern; false positives are the price of a
   zero-dependency pass, and the suppression comment exists to pay it
   explicitly, with a reason, at the site. *)

open Parsetree

type scope = {
  file : string;  (* repo-relative, '/'-separated *)
  allow_wall_clock : bool;  (* R1 off: the wall-clock engine itself *)
  allow_random : bool;  (* R2 off: the seeded PRNG implementation *)
  allow_tbl_iter : bool;  (* R3 off: the sorted-snapshot helper *)
  module_state_scope : bool;  (* R4 on: library code Domain_pool can reach *)
  protocol_scope : bool;  (* R7/R8 on: protocol step/handle code *)
  mcheck_scope : bool;  (* successor generation counts as a T1/T2 entry *)
}

let starts_with prefix s = String.starts_with ~prefix s

let scope_of_path path =
  (* windows-proof normalization; the tree itself always uses '/' *)
  let file = String.map (fun c -> if c = '\\' then '/' else c) path in
  let contains_fixtures =
    (* the linter's own test corpus runs with every rule armed *)
    let needle = "lint_fixtures" in
    let n = String.length needle and l = String.length file in
    let rec go i =
      i + n <= l && (String.sub file i n = needle || go (i + 1))
    in
    go 0
  in
  if contains_fixtures then
    {
      file;
      allow_wall_clock = false;
      allow_random = false;
      allow_tbl_iter = false;
      module_state_scope = true;
      protocol_scope = true;
      mcheck_scope = true;
    }
  else
    {
      file;
      allow_wall_clock = starts_with "lib/realtime/" file;
      allow_random =
        file = "lib/sim/prng.ml" || file = "lib/sim/prng.mli";
      allow_tbl_iter =
        file = "lib/sim/sorted_tbl.ml" || file = "lib/sim/sorted_tbl.mli";
      module_state_scope = starts_with "lib/" file;
      protocol_scope =
        List.exists
          (fun p -> starts_with p file)
          [ "lib/dgl/"; "lib/bconsensus/"; "lib/baselines/"; "lib/smr/" ];
      mcheck_scope = starts_with "lib/mcheck/" file;
    }

(* ------------------------------------------------------------------ *)
(* Name helpers                                                        *)
(* ------------------------------------------------------------------ *)

let path_of_lid lid = String.concat "." (Longident.flatten lid)

let head_of_lid lid =
  match Longident.flatten lid with [] -> "" | h :: _ -> h

let wall_clock_fns = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let tbl_iter_fns =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let partial_fns = [ "List.hd"; "List.tl"; "Option.get"; "failwith" ]

(* R9: per-event allocators.  sprintf also interprets its format string
   each call; (@) copies its whole left operand. *)
let sprintf_fns = [ "Printf.sprintf"; "Format.sprintf"; "Format.asprintf" ]

let append_fns = [ "@"; "List.append"; "Stdlib.List.append" ]

(* T3: the arena discipline is keyed on acquire-function names
   (matched on the last path component so Engine-internal and fixture
   arenas both resolve); *any* downstream mention of the bound slot —
   an arena_release/arena_free call included — counts as the slot
   being handled on that path. *)
let arena_acquire_fns = [ "arena_alloc"; "arena_acquire" ]

(* Allocators whose module-level evaluation creates shared mutable
   state.  [ref] is the headline; the rest are the stdlib's other
   mutable containers. *)
let mutable_allocators =
  [
    "ref";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.create_float";
    "Array.init";
    "Atomic.make";
    "Weak.create";
  ]

let is_handler_name name =
  starts_with "handle_" name
  || starts_with "on_message" name
  || name = "step"
  || starts_with "step_" name

(* T1/T2 entry points are broader than the lexical handler set: any
   on_* protocol callback (on_timer_impl, on_boot_impl, on_frame, ...)
   roots the deterministic core, as does mcheck successor generation. *)
let is_entry_name name = is_handler_name name || starts_with "on_" name

(* ------------------------------------------------------------------ *)
(* Shape helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Values ==/!= is legitimate on: immediates known from the literal. *)
let is_immediate_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false" | "()"); _ }, None)
    ->
      true
  | _ -> false

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

(* The eagerly-evaluated spine of a module-level binding: stops at
   anything that defers evaluation (fun, function, lazy).  Returns the
   first mutable-allocator application found. *)
let rec eager_mutable_alloc e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
    when List.mem (path_of_lid txt) mutable_allocators ->
      Some (path_of_lid txt)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      eager_mutable_alloc e
  | Pexp_let (_, vbs, body) ->
      let from_vbs =
        List.find_map (fun vb -> eager_mutable_alloc vb.pvb_expr) vbs
      in
      (match from_vbs with Some _ as r -> r | None -> eager_mutable_alloc body)
  | Pexp_sequence (a, b) -> (
      match eager_mutable_alloc a with
      | Some _ as r -> r
      | None -> eager_mutable_alloc b)
  | Pexp_ifthenelse (_, t, eo) -> (
      match eager_mutable_alloc t with
      | Some _ as r -> r
      | None -> Option.bind eo eager_mutable_alloc)
  | Pexp_tuple es -> List.find_map eager_mutable_alloc es
  | Pexp_record (fields, base) -> (
      match List.find_map (fun (_, e) -> eager_mutable_alloc e) fields with
      | Some _ as r -> r
      | None -> Option.bind base eager_mutable_alloc)
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.find_map (fun c -> eager_mutable_alloc c.pc_rhs) cases
  | _ -> None

(* R7: does any arm of this match name a protocol-message constructor?
   Message constructors in this tree are always qualified through a
   module called [Messages] or [Xxx_messages]. *)
let rec pattern_mentions_message_ctor p =
  let lid_is_messages lid =
    List.exists
      (fun comp ->
        comp = "Messages"
        || (String.length comp > 9
            && String.lowercase_ascii
                 (String.sub comp (String.length comp - 9) 9)
               = "_messages"))
      (Longident.flatten lid)
  in
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
      lid_is_messages txt
      || Option.fold ~none:false
           ~some:(fun (_, p) -> pattern_mentions_message_ctor p)
           arg
  | Ppat_or (a, b) ->
      pattern_mentions_message_ctor a || pattern_mentions_message_ctor b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
      pattern_mentions_message_ctor p
  | Ppat_tuple ps -> List.exists pattern_mentions_message_ctor ps
  | _ -> false

(* a top-level wildcard arm: `_`, possibly parenthesized/aliased *)
let rec is_wildcard_pattern p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_wildcard_pattern p
  | Ppat_or (a, b) -> is_wildcard_pattern a || is_wildcard_pattern b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* T3: arena slot drop analysis (intra-definition, path-sensitive)     *)
(* ------------------------------------------------------------------ *)

(* Does [e] mention the variable [s] at all?  Any occurrence — release,
   escape into a call, storage — counts as the slot being handled on
   that path; only a path with *no* occurrence drops it. *)
let mentions_var s e =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when x = s ->
              found := true
          | _ -> ());
          if not !found then default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !found

(* An arm whose whole body is an abort (raise/failwith/assert) is an
   error path: losing the slot there aborts the run, not the arena. *)
let rec is_abort_arm e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match path_of_lid txt with
      | "raise" | "raise_notrace" | "failwith" | "invalid_arg" -> true
      | _ -> false)
  | Pexp_assert _ -> true
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_abort_arm e
  | Pexp_sequence (_, e) -> is_abort_arm e
  | _ -> false

(* [slot_drops s body] returns the branch arms of [body] on which the
   acquired slot [s] is dropped: a path with no occurrence of [s] while
   a sibling path does handle it.  Conservative in the quiet direction:
   any non-branching occurrence (a release, an escape into another
   call, storage into a structure) counts as handled, so ownership
   transfer through the summarized call graph never false-positives. *)
let slot_drops s body =
  (* (covers : s handled on every path, drops : (loc, detail) list) *)
  let rec go e =
    if not (mentions_var s e) then (false, [])
    else
      match e.pexp_desc with
      | Pexp_let (_, vbs, b) ->
          if List.exists (fun vb -> mentions_var s vb.pvb_expr) vbs then
            (true, [])
          else go b
      | Pexp_sequence (a, b) ->
          let ca, la = go a and cb, lb = go b in
          (ca || cb, la @ lb)
      | Pexp_constraint (e, _) | Pexp_open (_, e) -> go e
      | Pexp_ifthenelse (c, t, eo) ->
          if mentions_var s c then (true, [])
          else
            let arms =
              (t.pexp_loc, "this branch", t)
              ::
              (match eo with
              | Some el -> [ (el.pexp_loc, "this branch", el) ]
              | None -> [])
            in
            let implicit =
              match eo with
              | None ->
                  [ (e.pexp_loc, "the implicit else path", false, [], false) ]
              | Some _ -> []
            in
            combine
              (List.map
                 (fun (loc, what, arm) ->
                   let c, l = go arm in
                   (loc, what, c, l, is_abort_arm arm))
                 arms
              @ implicit)
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          if mentions_var s scrut then (true, [])
          else
            combine
              (List.map
                 (fun case ->
                   let guard_covers =
                     match case.pc_guard with
                     | Some g -> mentions_var s g
                     | None -> false
                   in
                   let c, l = go case.pc_rhs in
                   ( case.pc_lhs.ppat_loc,
                     "this match arm",
                     guard_covers || c,
                     l,
                     is_abort_arm case.pc_rhs ))
                 cases)
      | _ -> (true, [])
  (* arms: (loc, what, covers, nested drops, aborts) *)
  and combine arms =
    let any = List.exists (fun (_, _, c, _, _) -> c) arms in
    let all = List.for_all (fun (_, _, c, _, aborts) -> c || aborts) arms in
    let drops =
      List.concat_map
        (fun (loc, what, c, nested, aborts) ->
          if c then nested
          else if aborts then []
          else if any then (loc, what ^ " drops the slot") :: nested
          else nested)
        arms
    in
    (all, drops)
  in
  if not (mentions_var s body) then
    [ (body.pexp_loc, "the slot is never used after the acquire") ]
  else snd (go body)

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let site_of_loc loc ~context =
  let pos = loc.Location.loc_start in
  {
    Summary.s_line = pos.Lexing.pos_lnum;
    s_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    s_context = context;
  }

(* Accumulator for the definition currently being walked. *)
type def_acc = {
  a_name : string;
  a_path : string list;
  a_site : Summary.site;
  a_entry : bool;
  mutable a_calls : string list;  (* reversed, with duplicates *)
  mutable a_taints : Summary.site list;  (* reversed *)
  mutable a_hazards : Summary.hazard list;  (* reversed *)
  mutable a_leaks : Summary.leak list;  (* reversed *)
}

let looks_like_ident path =
  path <> ""
  && (match path.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)

let scan_unit ~scope (structure : Parsetree.structure) :
    Rules.finding list * Summary.t =
  let findings = ref [] in
  let report ~rule ~loc ~context ~message =
    let pos = loc.Location.loc_start in
    findings :=
      Rules.finding ~rule ~file:scope.file ~line:pos.Lexing.pos_lnum
        ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
        ~context ~message ()
      :: !findings
  in
  (* module-level vs inside-an-expression: R4 only fires at module
     level, and definitions only open at module level *)
  let expr_depth = ref 0 in
  (* inside a step/handle binding: R7/R8/R9 lexical scope *)
  let handler_depth = ref 0 in
  (* submodule path within the unit, innermost first *)
  let module_stack = ref [] in
  let unit_path = Summary.unit_path_of_file scope.file in
  let defs = ref [] in
  let current = ref None in

  let in_handler () = scope.protocol_scope && !handler_depth > 0 in

  let add_call path =
    match !current with
    | Some acc when looks_like_ident path -> acc.a_calls <- path :: acc.a_calls
    | _ -> ()
  in
  let add_taint loc path =
    match !current with
    | Some acc ->
        acc.a_taints <- site_of_loc loc ~context:path :: acc.a_taints
    | None -> ()
  in
  let add_hazard loc context kind =
    match !current with
    | Some acc ->
        acc.a_hazards <-
          {
            Summary.h_site = site_of_loc loc ~context;
            h_kind = kind;
            h_reported = in_handler ();
          }
          :: acc.a_hazards
    | None -> ()
  in

  let check_ident txt loc =
    let path = path_of_lid txt in
    add_call path;
    if List.mem path wall_clock_fns then begin
      if not scope.allow_wall_clock then begin
        add_taint loc path;
        report ~rule:Rules.R1 ~loc ~context:path
          ~message:
            (Printf.sprintf
               "%s reads the wall clock; simulated code must use Sim_time \
                (only lib/realtime may)"
               path)
      end
    end;
    if head_of_lid txt = "Random" && not scope.allow_random then begin
      add_taint loc path;
      report ~rule:Rules.R2 ~loc ~context:path
        ~message:
          (Printf.sprintf
             "%s draws from the ambient generator; use the run's seeded \
              Sim.Prng stream"
             path)
    end;
    (* Domain-local state (Domain.self, Domain.DLS, ...) is a taint
       source for T1 even though no syntactic rule bans it outright:
       Domain_pool may use it, the deterministic core may not. *)
    if head_of_lid txt = "Domain" then add_taint loc path;
    if List.mem path tbl_iter_fns && not scope.allow_tbl_iter then
      report ~rule:Rules.R3 ~loc ~context:path
        ~message:
          (Printf.sprintf
             "%s enumerates in hash-bucket order; take a sorted snapshot \
              (Sim.Sorted_tbl) instead"
             path);
    (match txt with
    | Longident.Lident (("==" | "!=") as op) ->
        report ~rule:Rules.R5 ~loc ~context:op
          ~message:
            (Printf.sprintf
               "(%s) is physical equality; use (%s) or a domain compare"
               op
               (if op = "==" then "=" else "<>"))
    | _ -> ());
    (match path with
    | "compare" | "Stdlib.compare" | "Pervasives.compare" ->
        report ~rule:Rules.R6 ~loc ~context:"compare"
          ~message:
            "bare polymorphic compare; use a monomorphic compare \
             (Int.compare, Float.compare, String.compare, ...)"
    | _ -> ());
    if List.mem path partial_fns then begin
      add_hazard loc path Summary.Partial_fn;
      if in_handler () then
        report ~rule:Rules.R8 ~loc ~context:path
          ~message:
            (Printf.sprintf
               "%s can raise on a step/handle path; protocol handlers must \
                tolerate every interleaving"
               path)
    end;
    if List.mem path sprintf_fns then begin
      add_hazard loc path Summary.Alloc_sprintf;
      if in_handler () then
        report ~rule:Rules.R9 ~loc ~context:path
          ~message:
            (Printf.sprintf
               "%s allocates and re-interprets its format once per event \
                on a step/handle path; build the text in the ctx scratch \
                buffer with Sim.Numfmt.add_int"
               path)
    end;
    if List.mem path append_fns then begin
      add_hazard loc path Summary.Alloc_append;
      if in_handler () then
        report ~rule:Rules.R9 ~loc ~context:path
          ~message:
            (Printf.sprintf
               "(%s) copies its whole left operand once per event on a \
                step/handle path; prefer cons plus one reversal, or a \
                scratch table"
               (if path = "@" then "@" else path))
    end
  in

  let check_match_cases loc cases =
    if
      List.exists (fun c -> pattern_mentions_message_ctor c.pc_lhs) cases
    then
      List.iter
        (fun c ->
          if is_wildcard_pattern c.pc_lhs then begin
            add_hazard c.pc_lhs.ppat_loc "_" Summary.Wildcard_arm;
            if in_handler () then
              report ~rule:Rules.R7 ~loc:c.pc_lhs.ppat_loc ~context:"_"
                ~message:
                  "wildcard arm in a protocol message match; enumerate the \
                   constructors so new messages fail to compile here"
          end)
        cases;
    ignore loc
  in

  (* T3: a let-bound arena acquire must not lose its slot on any branch
     of the body it scopes. *)
  let strip_rhs e =
    let rec go e =
      match e.pexp_desc with
      | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
          go e
      | _ -> e
    in
    go e
  in
  let last_component path =
    match List.rev (String.split_on_char '.' path) with
    | last :: _ -> last
    | [] -> path
  in
  let check_arena_let vbs body =
    match !current with
    | None -> ()
    | Some acc ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, (strip_rhs vb.pvb_expr).pexp_desc) with
            | ( Ppat_var { txt = s; _ },
                Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) )
              when List.mem (last_component (path_of_lid txt)) arena_acquire_fns
              ->
                let acquire =
                  site_of_loc vb.pvb_expr.pexp_loc ~context:(path_of_lid txt)
                in
                List.iter
                  (fun (loc, detail) ->
                    acc.a_leaks <-
                      {
                        Summary.k_acquire = acquire;
                        k_drop = site_of_loc loc ~context:(path_of_lid txt);
                        k_detail = detail;
                      }
                      :: acc.a_leaks)
                  (slot_drops s body)
            | _ -> ())
          vbs
  in

  let close_def () =
    match !current with
    | None -> ()
    | Some acc ->
        defs :=
          {
            Summary.d_name = acc.a_name;
            d_path = acc.a_path;
            d_site = acc.a_site;
            d_entry = acc.a_entry;
            d_calls = List.sort_uniq String.compare acc.a_calls;
            d_taints = List.rev acc.a_taints;
            d_hazards = List.rev acc.a_hazards;
            d_leaks = List.rev acc.a_leaks;
          }
          :: !defs;
        current := None
  in

  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun it e ->
          incr expr_depth;
          Fun.protect
            ~finally:(fun () -> decr expr_depth)
            (fun () ->
              match e.pexp_desc with
              | Pexp_apply
                  ( ({ pexp_desc = Pexp_ident { txt = Longident.Lident (("==" | "!=") as op); _ }; _ }
                     as fn),
                    args ) ->
                  (* applied physical equality: allowed when a literal
                     operand proves the comparison is on immediates *)
                  if not (List.exists (fun (_, a) -> is_immediate_literal a) args)
                  then
                    report ~rule:Rules.R5 ~loc:fn.pexp_loc ~context:op
                      ~message:
                        (Printf.sprintf
                           "(%s) is physical equality; use (%s) or a domain \
                            compare"
                           op
                           (if op = "==" then "=" else "<>"));
                  (* iterate the arguments only: visiting [fn] again
                     would double-report via the bare-ident case *)
                  List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
              | _ ->
                  (match e.pexp_desc with
                  | Pexp_ident { txt; loc } -> check_ident txt loc
                  | Pexp_apply
                      ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                        args )
                    when List.exists (fun (_, a) -> is_float_literal a) args ->
                      report ~rule:Rules.R6 ~loc:e.pexp_loc
                        ~context:("float" ^ op)
                        ~message:
                          (Printf.sprintf
                             "(%s) against a float literal; use \
                              Float.compare or an epsilon test"
                             op)
                  | Pexp_assert
                      {
                        pexp_desc =
                          Pexp_construct
                            ({ txt = Longident.Lident "false"; _ }, None);
                        _;
                      }
                    when in_handler () ->
                      report ~rule:Rules.R8 ~loc:e.pexp_loc
                        ~context:"assert false"
                        ~message:
                          "assert false on a step/handle path; protocol \
                           handlers must tolerate every interleaving"
                  | Pexp_match (_, cases) -> check_match_cases e.pexp_loc cases
                  | Pexp_function cases -> check_match_cases e.pexp_loc cases
                  | Pexp_let (_, vbs, body) -> check_arena_let vbs body
                  | _ -> ());
                  default.Ast_iterator.expr it e))
      ;
      value_binding =
        (fun it vb ->
          let name =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> Some txt
            | _ -> None
          in
          let handler =
            match name with Some n -> is_handler_name n | None -> false
          in
          let opened =
            (* module-level named binding: open a summary definition *)
            match name with
            | Some n when !expr_depth = 0 && !current = None ->
                current :=
                  Some
                    {
                      a_name = n;
                      a_path = unit_path @ List.rev (n :: !module_stack);
                      a_site = site_of_loc vb.pvb_pat.ppat_loc ~context:n;
                      a_entry =
                        (scope.protocol_scope && is_entry_name n)
                        || (scope.mcheck_scope && n = "successors");
                      a_calls = [];
                      a_taints = [];
                      a_hazards = [];
                      a_leaks = [];
                    };
                (* the binding's own rhs can be an arena let at depth 0 *)
                (match (strip_rhs vb.pvb_expr).pexp_desc with
                | Pexp_let (_, vbs, body) -> check_arena_let vbs body
                | _ -> ());
                true
            | _ -> false
          in
          let finish () = if opened then close_def () in
          if handler then begin
            incr handler_depth;
            Fun.protect
              ~finally:(fun () ->
                decr handler_depth;
                finish ())
              (fun () -> default.Ast_iterator.value_binding it vb)
          end
          else
            Fun.protect ~finally:finish (fun () ->
                default.Ast_iterator.value_binding it vb));
      module_binding =
        (fun it mb ->
          let name =
            match mb.pmb_name.Location.txt with Some n -> n | None -> "_"
          in
          module_stack := name :: !module_stack;
          Fun.protect
            ~finally:(fun () ->
              module_stack := List.tl !module_stack)
            (fun () -> default.Ast_iterator.module_binding it mb));
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs)
            when !expr_depth = 0 && scope.module_state_scope ->
              List.iter
                (fun vb ->
                  match eager_mutable_alloc vb.pvb_expr with
                  | Some alloc ->
                      report ~rule:Rules.R4 ~loc:vb.pvb_pat.ppat_loc
                        ~context:alloc
                        ~message:
                          (Printf.sprintf
                             "module-level %s is state shared across \
                              Domain_pool workers; keep it in the per-run \
                              record"
                             alloc)
                  | None -> ())
                vbs
          | _ -> ());
          default.Ast_iterator.structure_item it si);
    }
  in
  iter.Ast_iterator.structure iter structure;
  ( List.sort Rules.compare_findings !findings,
    { Summary.file = scope.file; defs = List.rev !defs } )

let scan ~scope structure = fst (scan_unit ~scope structure)
