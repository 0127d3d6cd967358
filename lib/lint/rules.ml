(* The rule catalogue for the determinism & protocol-hygiene linter.

   Each rule guards one of the reproduction's standing assumptions:
   byte-identical experiment tables at 1 vs N domains, lossless trace
   replay, and the Section 4 algorithm's tolerance of obsolete-ballot
   traffic.  The pass is purely syntactic (Parsetree, no typing), so
   every rule is written to be cheap, predictable and suppressible at
   the site with an explicit reason. *)

type id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | T1 | T2 | T3

let all_ids = [ R1; R2; R3; R4; R5; R6; R7; R8; R9; T1; T2; T3 ]

let id_to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"

let id_of_string s =
  match String.uppercase_ascii s with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "T1" -> Some T1
  | "T2" -> Some T2
  | "T3" -> Some T3
  | _ -> None

let title = function
  | R1 -> "wall clock outside lib/realtime"
  | R2 -> "ambient Random outside the seeded PRNG"
  | R3 -> "Hashtbl iteration order leaks into results"
  | R4 -> "toplevel mutable state in Domain_pool-reachable code"
  | R5 -> "physical equality on non-immediate values"
  | R6 -> "polymorphic compare/equality hazard"
  | R7 -> "wildcard arm in a protocol message-handler match"
  | R8 -> "partial function on a step/handle path"
  | R9 -> "per-event allocation on a step/handle path"
  | T1 -> "nondeterminism taints the deterministic core"
  | T2 -> "hot-path hazard in a step/handle-reachable helper"
  | T3 -> "unbalanced message-arena acquire/release"

let rationale = function
  | R1 ->
      "Simulated runs must depend only on Sim_time; a wall-clock read \
       makes replay and 1-vs-N-domain table equality impossible.  Only \
       lib/realtime (the wall-clock engine) may read the real clock."
  | R2 ->
      "All randomness must flow from the run's seeded splitmix64 stream \
       (Sim.Prng); ambient Random.* draws from process-global state and \
       breaks replay."
  | R3 ->
      "Hashtbl.iter/fold/to_seq enumerate in hash-bucket order, which is \
       not part of any contract.  Deterministic modules must take sorted \
       snapshots (Sim.Sorted_tbl) before iterating."
  | R4 ->
      "A module-level ref/Hashtbl/etc. in a library reachable from \
       Domain_pool closures is shared across worker domains: a data race \
       at worst, cross-run contamination at best.  Keep state inside the \
       per-run record."
  | R5 ->
      "==/!= on boxed values compares addresses, which vary with \
       allocation order; use structural or domain-specific equality."
  | R6 ->
      "Bare polymorphic compare (and =/<> against float literals) order \
       variants by tag and bits: adding a constructor or a NaN silently \
       reorders results.  Use monomorphic compares (Int.compare, \
       Float.compare, Ballot.compare, ...)."
  | R7 ->
      "A `_` arm in a match over protocol messages silently drops any \
       constructor added later; the Section 4 algorithm must *explicitly* \
       tolerate obsolete-ballot traffic, so handlers enumerate every \
       message."
  | R8 ->
      "List.hd/Option.get/failwith/assert false on a step/handle path \
       turns an unexpected-but-tolerable message interleaving into a \
       crash; protocol code must handle or explicitly ignore, never trap."
  | R9 ->
      "Printf/Format sprintf and list append (@) on a step/handle path \
       allocate (and sprintf interprets its format) once per event, \
       which the allocation-free engine budget (test/test_alloc.ml) \
       pays for on every run.  Advisory: build text in the ctx scratch \
       buffer with Numfmt.add_int and prefer cons + a single \
       reversal (or the scratch tables) over repeated append."
  | T1 ->
      "Whole-program taint: a value originating from the wall clock, \
       ambient Random or Domain state may not flow — through calls \
       across module boundaries — into any function reachable from a \
       step/handle entry point or Mcheck successor generation.  Unlike \
       R1/R2, a sited allow on the read does not cover the core: the \
       laundered value still breaks replay.  lib/realtime is the sole \
       declared source-sink boundary."
  | T2 ->
      "Whole-program reachability: the R7/R8/R9 hazards (wildcard \
       message arms, partial functions, per-event allocation) apply to \
       every function *transitively reachable* from a step/handle \
       entry point, not just code lexically inside one — a helper one \
       module over is on the hot path all the same."
  | T3 ->
      "Arena pairing: every message-arena acquire must be matched by \
       exactly one release (or an explicit ownership transfer) on \
       every control path.  A branch that drops the slot leaks it from \
       the free list, which the test_alloc.ml slope tests only catch \
       dynamically and only on exercised paths."

type finding = {
  rule : id;
  file : string;  (* repo-relative, '/'-separated *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, as in compiler locations *)
  context : string;  (* the offending token, e.g. "Unix.gettimeofday" *)
  message : string;
  chain : string list;
      (* T1/T2: the witness call chain, entry point first, the
         function containing the finding last.  [] for syntactic
         rules. *)
}

let finding ?(chain = []) ~rule ~file ~line ~col ~context ~message () =
  { rule; file; line; col; context; message; chain }

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s (%s)%s" f.file f.line f.col
    (id_to_string f.rule) f.message
    (title f.rule)
    (match f.chain with
    | [] -> ""
    | chain ->
        Printf.sprintf " [chain: %s]" (String.concat " -> " chain))

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else String.compare (id_to_string a.rule) (id_to_string b.rule)
