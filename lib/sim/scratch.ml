(* Per-process reusable workspaces, threaded to protocols through
   [Runtime.ctx].  One scratch lives as long as its process's context, so
   handler-local bookkeeping (tallies, temporary tables, note text) can
   reuse the same storage on every event instead of allocating afresh.

   Protocol *state* must stay immutable (the model checker hashes and
   stores states); scratch is only for values that die before the handler
   returns. *)

type t = { mutable floats : float array; buf : Buffer.t }

let create () = { floats = [||]; buf = Buffer.create 64 }

let floats t n =
  if Array.length t.floats < n then
    t.floats <- Array.make (Stdlib.max n (2 * Array.length t.floats)) 0.;
  t.floats

let buffer t =
  Buffer.clear t.buf;
  t.buf
