(** Per-process reusable workspaces for handler-local bookkeeping.

    Every {!Runtime.ctx} carries one scratch.  Handlers may use it for
    temporaries that do not outlive the current event — note and label
    text — so the steady-state path reuses one allocation instead of
    building fresh strings per event.

    Rules: never store scratch (or anything aliasing it) in protocol
    state — states must stay immutable snapshots — and never hold the
    scratch buffer across a call that might use the same scratch. *)

type t

val create : unit -> t

(** An emptied reusable buffer for building note/label text. *)
val buffer : t -> Buffer.t
