(** Mutable array-backed binary min-heap: the generic priority queue,
    behind the [Netio] timers ({!Packed_queue} is the engine's).

    Elements sit in a flat array that grows in place (doubling), so a
    steady state of adds and pops allocates nothing.  A heap is never
    shared across domains.

    The heap is a min-heap with respect to the comparison supplied at
    creation.  Binary heaps are not stable, so callers that need
    deterministic order among equal keys must make the comparison total,
    e.g. by folding an insertion sequence number into [cmp] as the
    [Netio] timers do. *)

type 'a t

(** [create ?capacity ~cmp ()] is an empty heap.  [capacity] is the
    initial array size hint (default 256; clipped to at least 1). *)
val create : ?capacity:int -> cmp:('a -> 'a -> int) -> unit -> 'a t

(** Number of queued elements; O(1). *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Pushes an element; amortised O(log n), O(1) allocation-free except
    when the backing array doubles. *)
val add : 'a t -> 'a -> unit

(** Smallest element, if any, without removing it. *)
val peek_min : 'a t -> 'a option

(** Removes and returns the smallest element. *)
val pop_min : 'a t -> 'a option

(** Like {!peek_min} but without the [Some] allocation; raises
    [Invalid_argument] on an empty queue.  Callers on allocation-free
    paths pair it with {!is_empty}. *)
val peek_min_exn : 'a t -> 'a

(** Like {!pop_min} but without the [Some] allocation; raises
    [Invalid_argument] on an empty queue. *)
val pop_min_exn : 'a t -> 'a

(** [of_list ~cmp xs] builds a heap containing [xs]. *)
val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

(** Drains the heap (destructively); returns elements in ascending
    order. *)
val drain_sorted : 'a t -> 'a list
