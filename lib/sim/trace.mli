(** Structured execution traces (v2).

    Recording is optional (scenarios enable it); when disabled every call
    is a no-op, so protocols can trace unconditionally.

    Storage is a ring of fixed-width binary records in a single [Bytes]
    buffer (see OBSERVABILITY.md for the record format); strings are
    interned per trace.  An {e unbounded} trace ([capacity = 0], the
    default) retains every entry; a {e bounded} trace overwrites the
    oldest entry once full, so long realtime runs can record in constant
    memory.  Entries are appended in non-decreasing time order, which
    makes windowed queries [O(log n + window)].

    {b Cost of a record.}  The typed [record_*] functions write one
    96-byte record and allocate nothing of their own: no entry, option
    or closure block.  A message payload whose [kind] is a string
    literal and whose [detail] is empty costs no hashing either — the
    kind is found by physical identity in a small per-trace cache; a
    non-empty detail or a note text is interned through a [Hashtbl]
    lookup.  (A caller in another module still boxes the float time it
    passes.)  The [entry] variant below is the decode layer,
    materialized on demand by [get] and friends; the field readers
    ({!tag_at}, {!id_at}, ...) read records in place.

    {b A delivery copies its send.}  A [Deliver], or a [Drop] on arrival
    at a down receiver, has the same id, endpoints and payload as the
    [Send] that minted its id.  The engine keeps each send's record
    number ({!total_recorded} just before the send was written) and
    records the delivery with {!deliver_as_sent} / {!drop_as_sent}:
    a 96-byte copy with the tag and time rewritten, so the protocol's
    payload is built once per message.  When a bounded ring has already
    overwritten the send, or the message was injected without one, the
    copy reports [false] and the caller records the entry from its
    payload as before; the retained entries are the same either way.

    Message entries ([Send]/[Deliver]/[Drop]) carry a causal message
    [id]: the id minted at [Send] is threaded through to the matching
    [Deliver] or [Drop], so a delivery can always be traced back to its
    origin.  Entries with [id = no_origin] were injected without a
    recorded send (e.g. adversarial injections).

    {b Recycled storage.}  A run that is done with its trace hands the
    storage back with {!release}.  Each domain keeps one spare buffer,
    the largest released there and not yet taken; the next enabled,
    unbounded trace {!create}d in that domain starts from it instead of
    growing a fresh buffer.  A bounded trace never takes the spare (its
    ring needs exactly [capacity] slots), but its buffer may become the
    spare when it is released.  Lifetime rule: after [release t], every
    reader and recorder of [t] raises [Invalid_argument] (only
    {!enabled} and {!release} itself still answer), so a released trace
    can neither read nor overwrite the records of the run that reuses
    its buffer.  Only the retained records a trace wrote itself are
    ever read, so the bytes a reused buffer keeps from older runs are
    never visible.

    Traces export to JSONL ({!to_jsonl}) — one flat JSON object per line
    — and re-import losslessly with {!of_jsonl}. *)

(** Typed semantic payload attached to message entries.  [kind] is the
    wire-level message kind (["1a"], ["2b"], ["estimate"], ...); the
    optional fields carry whichever protocol coordinates apply (DGL
    ballots and sessions, round-based rounds, decided/proposed values).
    [detail] is a free-form suffix for anything not covered. *)
type payload = {
  kind : string;
  session : int option;
  ballot : int option;
  phase : int option;
  round : int option;
  value : int option;
  detail : string;
}

(** [payload ?session ?ballot ?phase ?round ?value ?detail kind] builds a
    payload; omitted fields are [None] / [""]. *)
val payload :
  ?session:int ->
  ?ballot:int ->
  ?phase:int ->
  ?round:int ->
  ?value:int ->
  ?detail:string ->
  string ->
  payload

(** [info kind] is [payload kind]: a bare payload with only a kind, for
    protocols with no semantic coordinates (e.g. heartbeats). *)
val info : string -> payload

type entry =
  | Send of { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Deliver of
      { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Drop of { t : Sim_time.t; id : int; src : int; dst : int; payload : payload }
  | Timer_set of { t : Sim_time.t; proc : int; tag : int; fire_at : Sim_time.t }
  | Timer_fire of { t : Sim_time.t; proc : int; tag : int }
  | Crash of { t : Sim_time.t; proc : int }
  | Restart of { t : Sim_time.t; proc : int }
  | Decide of { t : Sim_time.t; proc : int; value : int }
  | Note of { t : Sim_time.t; proc : int; text : string }

(** Message id for entries whose originating [Send] was never recorded. *)
val no_origin : int

type t

(** [create ?capacity ~enabled] makes a trace.  [capacity = 0] (default)
    retains every entry; [capacity > 0] bounds retained entries,
    overwriting the oldest once full.  An enabled, unbounded trace takes
    this domain's spare buffer, if there is one.  Raises
    [Invalid_argument] on a negative capacity. *)
val create : ?capacity:int -> enabled:bool -> unit -> t

val enabled : t -> bool

(** [release t] ends [t]'s life and offers its buffer to this domain's
    spare, which keeps the larger of the two.  Afterwards every reader
    and recorder on [t] raises [Invalid_argument] (see the lifetime
    rule above).  Releasing a disabled trace, or releasing twice, does
    nothing. *)
val release : t -> unit

val record : t -> entry -> unit

(** {1 Typed recorders}

    Equivalent to {!record} on the matching constructor, but writing the
    binary record directly — no intermediate [entry] (or payload option)
    blocks.  The engine's hot path uses these; [record] remains for
    callers that already hold an [entry]. *)

val record_send :
  t -> t:Sim_time.t -> id:int -> src:int -> dst:int -> payload -> unit

val record_deliver :
  t -> t:Sim_time.t -> id:int -> src:int -> dst:int -> payload -> unit

val record_drop :
  t -> t:Sim_time.t -> id:int -> src:int -> dst:int -> payload -> unit

val record_timer_set :
  t -> t:Sim_time.t -> proc:int -> tag:int -> fire_at:Sim_time.t -> unit

val record_timer_fire : t -> t:Sim_time.t -> proc:int -> tag:int -> unit

val record_crash : t -> t:Sim_time.t -> proc:int -> unit

val record_restart : t -> t:Sim_time.t -> proc:int -> unit

val record_decide : t -> t:Sim_time.t -> proc:int -> value:int -> unit

val record_note : t -> t:Sim_time.t -> proc:int -> string -> unit

(** {1 Copies of a recorded send} *)

(** [deliver_as_sent t ~sent ~key] records a [Deliver] at the instant
    whose {!Sim_time.key_of_t} is [key], copying id, endpoints and
    payload from the [Send] that was record number [sent] (counted as
    {!total_recorded} counts).  Allocates nothing.  Returns [false], and
    records nothing, when that send is no longer retained, [sent] names
    no [Send], or recording is off. *)
val deliver_as_sent : t -> sent:int -> key:int -> bool

(** As {!deliver_as_sent}, recording a [Drop]. *)
val drop_as_sent : t -> sent:int -> key:int -> bool

(** {1 Field readers}

    Read one field of the [i]-th oldest retained entry in place, without
    decoding it (see {!get} for a whole entry).  Each raises
    [Invalid_argument] out of bounds or on an entry without that
    field. *)

type tag =
  | Tag_send
  | Tag_deliver
  | Tag_drop
  | Tag_timer_set
  | Tag_timer_fire
  | Tag_crash
  | Tag_restart
  | Tag_decide
  | Tag_note

val tag_at : t -> int -> tag

(** Time of any entry. *)
val entry_time : t -> int -> Sim_time.t

(** [compare_times t i j] is [Sim_time.compare] on the times of entries
    [i] and [j], without boxing either. *)
val compare_times : t -> int -> int -> int

(** Message id, source and destination of a [Send]/[Deliver]/[Drop]. *)
val id_at : t -> int -> int

val src_at : t -> int -> int

val dst_at : t -> int -> int

(** Process of any other entry. *)
val proc_at : t -> int -> int

(** Tag of a [Timer_set] or [Timer_fire]. *)
val timer_tag_at : t -> int -> int

(** [fire_at] of a [Timer_set]. *)
val fire_time : t -> int -> Sim_time.t

(** Value of a [Decide]. *)
val decided_at : t -> int -> int

(** Text of a [Note]. *)
val text_at : t -> int -> string

(** Retained entries, oldest first. *)
val entries : t -> entry list

(** [get t i] is the [i]-th oldest retained entry (0-based).  Raises
    [Invalid_argument] out of bounds. *)
val get : t -> int -> entry

(** Retained entry count. *)
val length : t -> int

(** Entries ever recorded, including any overwritten in bounded mode. *)
val total_recorded : t -> int

(** [total_recorded t - length t]: entries lost to bounded-mode wrap. *)
val dropped_oldest : t -> int

(** The bound, or [None] for an unbounded trace. *)
val capacity : t -> int option

(** Iterate retained entries oldest-first without materialising a list. *)
val iter : (entry -> unit) -> t -> unit

val fold : ('a -> entry -> 'a) -> 'a -> t -> 'a

(** [fold_window f acc t ~lo ~hi] folds over retained entries with
    [lo <= time_of e <= hi], oldest first.  [O(log n + window)]. *)
val fold_window :
  ('a -> entry -> 'a) -> 'a -> t -> lo:Sim_time.t -> hi:Sim_time.t -> 'a

val time_of : entry -> Sim_time.t

(** [sends_in_window t ~lo ~hi] counts [Send] entries with
    [lo <= t <= hi].  [O(log n + window)]. *)
val sends_in_window : t -> lo:Sim_time.t -> hi:Sim_time.t -> int

(** Decide entries as [(proc, time, value)] triples, chronological.
    Single pass over the retained entries. *)
val decisions : t -> (int * Sim_time.t * int) list

val pp_entry : Format.formatter -> entry -> unit

val pp : Format.formatter -> t -> unit

(** {1 JSONL export / import} *)

(** One flat {!Json} object per entry, newline-terminated lines, oldest
    first, written from the records with {!Json}'s streaming writers.
    Times print as {!Json.float}, which round-trips every finite float;
    optional payload fields are omitted when [None]. *)
val to_jsonl : t -> string

(** Parse JSONL produced by {!to_jsonl} (blank lines ignored) into a
    fresh unbounded trace, through {!Json.parse}.  Integer fields must be
    integer lexemes and times JSON numbers (no [inf] or [nan]).
    [Error msg] names the offending line. *)
val of_jsonl : string -> (t, string) result
