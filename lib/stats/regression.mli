(** Least-squares fits used to check asymptotic shapes empirically.

    The central tool of the experiment suite: to validate a bound like
    "Gathering terminates in O(n^2) interactions" we sweep [n], measure
    mean termination time [y(n)], and fit [log y = a log n + b]. The
    fitted slope [a] is the empirical exponent and must match the
    theorem (2 for Gathering, ~2 + log-factor for Waiting, 1.5 + for
    Waiting Greedy). *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** Coefficient of determination of the fit. *)
  residual_stddev : float;
}

val linear : (float * float) array -> fit
(** [linear points] fits [y = slope * x + intercept] by ordinary least
    squares. @raise Invalid_argument with fewer than two points or zero
    x-variance. *)

val log_log : (float * float) array -> fit
(** [log_log points] fits [log y = slope * log x + intercept]; the
    slope estimates the polynomial exponent of [y] in [x]. All
    coordinates must be positive. *)

val ratio_stability : (float * float) array -> float * float
(** [ratio_stability points] returns mean and coefficient of variation
    of [y/x] over the points. A small coefficient of variation means
    [y = Theta(x)] with a stable constant — the check used when the
    predicted form (e.g. [n log n]) is known exactly. *)
