(** Summary statistics over samples (decision latencies, message counts).

    All functions take plain [float list] samples; experiments normalise
    latencies to units of [delta] before aggregating so results read like
    the paper's bound ("decides within ~17 delta"). *)

type summary = {
  samples : int;  (** sample count *)
  mean : float;
  stddev : float;  (** sample standard deviation *)
  min : float;
  max : float;
  p50 : float;  (** median (nearest rank) *)
  p95 : float;  (** 95th percentile (nearest rank) *)
}

(** Raises [Invalid_argument] on an empty list. *)
val summarize : float list -> summary

(** Arithmetic mean.  Raises [Invalid_argument] on an empty list. *)
val mean : float list -> float

(** Sample standard deviation (Bessel-corrected); [0.] on fewer than two
    samples. *)
val stddev : float list -> float

(** [percentile q xs] with [0. <= q <= 1.], nearest-rank on the sorted
    samples. Raises on empty input. *)
val percentile : float -> float list -> float

(** {!percentile} over an array already sorted ascending, in O(1). *)
val percentile_sorted : float -> float array -> float

(** Ordinary least squares fit [y = a + b * x]; returns [(a, b)].
    Raises on fewer than two points or degenerate x. *)
val linear_fit : (float * float) list -> float * float
