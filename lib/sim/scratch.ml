(* Per-process reusable workspaces, threaded to protocols through
   [Runtime.ctx].  One scratch lives as long as its process's context, so
   handler-local text can reuse the same storage on every event instead
   of allocating afresh.

   Protocol *state* must stay immutable (the model checker hashes and
   stores states); scratch is only for values that die before the handler
   returns. *)

type t = { buf : Buffer.t }

let create () = { buf = Buffer.create 64 }

let buffer t =
  Buffer.clear t.buf;
  t.buf
