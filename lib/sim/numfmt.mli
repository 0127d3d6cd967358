(** Allocation-free integer formatting for text built on step/handle
    paths (protocol notes), where [string_of_int] or [Printf] would
    allocate once per event against the engine's allocation budget
    ([test/test_alloc.ml]). *)

(** [add_int buf n] appends [string_of_int n] to [buf] without building
    the intermediate string.  Handles [min_int]. *)
val add_int : Buffer.t -> int -> unit
