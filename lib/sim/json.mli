(** Minimal JSON values: print and parse without an external dependency.

    The project's one JSON codec: nothing else escapes a JSON string or
    parses a JSON document.  Writers build a {!t} and print it — fuzz
    corpus files, chaos schedules, the metrics registry, the lint report and
    [BENCH_RESULTS.json] — or, for trace JSONL ({!Trace.to_jsonl}, one
    compact object per line), append the same bytes piece by piece with
    the streaming writers.  Readers use {!parse} and the accessors,
    [client --check-recovery]'s latency-trace reader included (the
    client writes those lines with [Printf] on its per-command path:
    two fixed-format floats, no strings).  Numbers keep their raw
    lexeme, so 64-bit integers (seeds) round-trip exactly instead of
    being squeezed through a float, and a writer can fix its own number
    format (a [Num] built with [%.6g] prints as exactly that). *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** raw lexeme, e.g. ["42"], ["-0.5"], ["1e-3"] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {2 Constructors} *)

val int : int -> t

val int64 : int64 -> t

(** Finite floats print with enough digits to round-trip ([%.17g]). *)
val float : float -> t

(** {2 Accessors — [Error] names what was expected} *)

val to_int : t -> (int, string) result

val to_int64 : t -> (int64, string) result

val to_float : t -> (float, string) result

val to_string : t -> (string, string) result

val to_list : t -> (t list, string) result

(** [member k j] looks up key [k] in object [j]. *)
val member : string -> t -> (t, string) result

(** [member_opt k j] is [None] when [j] is an object without key [k]. *)
val member_opt : string -> t -> t option

(** {2 Printing and parsing} *)

(** [add buf j] appends {!print}'s rendering of [j] to [buf] — for
    writers of many documents. *)
val add : Buffer.t -> t -> unit

(** {2 Streaming writers}

    Pieces of the compact rendering, appended straight to a buffer, for
    writers that emit many small objects without building a {!t} per
    object ({!Trace.to_jsonl}).  Each writes exactly the bytes {!add}
    writes for the same value. *)

(** [add_string buf s] appends [s] as a quoted, escaped JSON string. *)
val add_string : Buffer.t -> string -> unit

(** [add_key buf k] appends the object key [k] and its [:]. *)
val add_key : Buffer.t -> string -> unit

(** [add_int buf i] appends {!int}[ i]'s lexeme. *)
val add_int : Buffer.t -> int -> unit

(** [add_float buf f] appends {!float}[ f]'s rendering: [%.17g] for a
    finite float, [null] otherwise. *)
val add_float : Buffer.t -> float -> unit

(** Compact one-line rendering. *)
val print : t -> string

(** Two-space-indented multi-line rendering (stable field order: objects
    print in construction order). *)
val print_pretty : t -> string

(** Parse one JSON document (surrounding whitespace allowed).
    [Error msg] includes the offending position. *)
val parse : string -> (t, string) result
