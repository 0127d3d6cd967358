(** Deterministic [Hashtbl] snapshots: sort the bindings by key before
    anything observes the order.

    This is the one module allowed to iterate a [Hashtbl] directly
    (lint rule R3); everywhere else, iteration-order nondeterminism
    must go through these sorted snapshots.  The comparison is a
    required argument so call sites stay monomorphic (lint rule R6).

    Tables that hold several bindings for one key (via [Hashtbl.add]
    shadowing) snapshot all of them, in unspecified relative order —
    use [Hashtbl.replace] tables with these helpers. *)

val bindings :
  compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key. *)

val iter :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter ~compare f tbl]: [f] over the sorted bindings. *)

val fold :
  compare:('k -> 'k -> int) ->
  ('k -> 'v -> 'acc -> 'acc) ->
  ('k, 'v) Hashtbl.t ->
  'acc ->
  'acc
(** [fold ~compare f tbl init]: left fold over the sorted bindings. *)
