(** Asymptotic-shape checks over sweeps of [n].

    Given measurements at increasing [n], compare against a predicted
    form [p(n)]: the ratio [measured / p(n)] should stabilise to a
    constant if the prediction has the right shape, and the fitted
    log–log slope estimates the polynomial exponent. *)

type point = { n : int; mean : float; std_error : float; success : float }

val point_of : Experiment.measurement -> point

val points_of : Experiment.measurement list -> point list

val exponent : point list -> Doda_stats.Regression.fit
(** Log–log fit of mean vs [n]; the slope is the empirical exponent. *)

val ratio_stability : predicted:(int -> float) -> point list -> float * float
(** Mean and coefficient of variation of the ratios: a small CV
    (< ~0.2) indicates the predicted shape holds with a stable
    constant. *)
