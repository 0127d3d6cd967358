(** Per-process reusable workspaces for handler-local bookkeeping.

    Every {!Runtime.ctx} carries one scratch.  Handlers may use it for
    temporaries that do not outlive the current event — quorum tallies,
    per-peer tables, note text — so the steady-state path reuses one
    allocation instead of building fresh arrays and strings per event.

    Rules: never store scratch (or anything aliasing it) in protocol
    state — states must stay immutable snapshots — and never hold a
    scratch array across a call that might use the same scratch. *)

type t

val create : unit -> t

(** [ints t n] is a reusable array of length >= [n] with arbitrary
    (stale) contents.  The same storage is returned on every call,
    grown as needed. *)
val ints : t -> int -> int array

val floats : t -> int -> float array

(** An emptied reusable buffer for building note/label text. *)
val buffer : t -> Buffer.t
