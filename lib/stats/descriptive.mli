(** Descriptive statistics over float samples.

    Used throughout the experiment harness to summarise replicated
    measurements (interaction counts, costs, ratios). *)

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (denominator [n - 1]); [0.] for samples
    of size one. @raise Invalid_argument on an empty array. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val std_error : float array -> float
(** Standard error of the mean, [stddev / sqrt n]. *)

val min : float array -> float
(** Smallest sample. @raise Invalid_argument on an empty array. *)

val max : float array -> float
(** Largest sample. @raise Invalid_argument on an empty array. *)

val median : float array -> float
(** The 0.5 quantile; input is not modified. *)

val quantile : float array -> float -> float
(** [quantile xs q] is the [q]-quantile ([0. <= q <= 1.]) using linear
    interpolation between order statistics; input is not modified. *)

val total : float array -> float
(** Sum of all samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  std_error : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}
(** All the common statistics in one pass-friendly record. *)

val summarize : float array -> summary
(** [summarize xs] computes a {!summary}. @raise Invalid_argument on an
    empty array. *)
