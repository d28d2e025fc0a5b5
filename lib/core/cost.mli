(** The cost function of Section 2.3.

    [cost_A(I) = min { i | duration(A, I) <= T(i) }] where [T(i)] is
    the ending time of [i] successive optimal convergecasts. It counts
    how many optimal aggregations the offline algorithm could have
    completed while [A] was still running: an algorithm is optimal iff
    its cost is 1.

    Analyses here run over the finite recorded prefix of an execution,
    so a cost that the definition makes infinite surfaces as a lower
    bound ([At_least]): on the recorded horizon we cannot distinguish
    "the next convergecast ends beyond the horizon" from "ends never". *)

type t =
  | Finite of int
  | At_least of int
      (** The algorithm had not terminated within the analysed prefix;
          the true cost is at least this many convergecasts (and is
          exactly the paper's [i_max] when the next [T] is truly
          infinite). *)

val cost :
  n:int -> sink:int -> Doda_dynamic.Sequence.t -> duration:int option -> t
(** [cost ~n ~sink s ~duration] evaluates the definition over [s].
    [duration = Some d] is the algorithm's termination time: the chain
    [T(1), T(2), ...] is computed only up to the first [T(i) >= d].
    [None] means it had not terminated after the whole of [s], and
    needs the whole chain. *)

val convergecasts_within : n:int -> sink:int -> Doda_dynamic.Sequence.t -> upto:int -> int
(** Largest [i] such that [T(i) <= upto] — the number of successive
    optimal convergecasts that complete by time [upto]. The chain is
    computed only up to the first [T(i) > upto]. *)

val of_result : n:int -> sink:int -> Doda_dynamic.Sequence.t -> Engine.result -> t
(** Cost of an engine run, analysed against the sequence that drove it
    (usually [Schedule.prefix sched result.steps], or longer). *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val to_float : t -> float
(** Numeric value for aggregation in experiments ([At_least k] maps to
    [k]). *)
