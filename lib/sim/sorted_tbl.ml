(* Deterministic Hashtbl snapshots.

   Hashtbl.iter/fold/to_seq enumerate in hash-bucket order, which is
   not part of any contract and must never leak into experiment tables,
   traces or merged metrics.  This module is the one place allowed to
   iterate a Hashtbl directly (lint rule R3): it snapshots the bindings
   and sorts them by key under an explicit comparison before anything
   observes the order.

   The comparison is a required argument on purpose: a defaulted
   polymorphic compare would just trade the iteration-order hazard for
   a variant-ordering one (lint rule R6). *)

let bindings ~compare:cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let iter ~compare:cmp f tbl =
  List.iter (fun (k, v) -> f k v) (bindings ~compare:cmp tbl)

let fold ~compare:cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~compare:cmp tbl)
