(** Confidence intervals for replicated measurements.

    Both a normal-approximation interval and a nonparametric bootstrap
    (used in the benches, where termination-time distributions are
    skewed). *)

type interval = { center : float; lower : float; upper : float }

val normal_mean : ?confidence:float -> float array -> interval
(** [normal_mean xs] is the normal-approximation CI for the mean
    (default 95%). @raise Invalid_argument on an empty sample. *)

val bootstrap_mean :
  ?confidence:float -> ?resamples:int -> Doda_prng.Prng.t -> float array -> interval
(** [bootstrap_mean rng xs] is a percentile-bootstrap CI for the mean
    (default 95%, 1000 resamples). *)

val contains : interval -> float -> bool
(** [contains iv x] tests [lower <= x <= upper]. *)
