(** Integer formatting without [Printf] or [Format], for text built on
    step/handle paths (protocol notes) and for the trace payloads every
    traced message builds, where a format interpretation per event would
    dominate the cost of recording it. *)

(** [add_int buf n] appends [string_of_int n] to [buf] without building
    the intermediate string.  Handles [min_int]. *)
val add_int : Buffer.t -> int -> unit

(** [prefixed prefix n] is [prefix ^ string_of_int n], built without
    [Printf]. *)
val prefixed : string -> int -> string
