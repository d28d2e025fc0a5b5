(** Exact optimal offline convergecast.

    A {e convergecast} is a data aggregation schedule of minimum
    duration (Section 2.3). This module computes it exactly, in
    polynomial time, through the duality the paper uses in Theorem 8: a
    convergecast to the sink fits within [I_lo .. I_hi] iff greedy
    flooding from the sink succeeds on the {e reversed} subsequence
    [I_hi, I_{hi-1}, ..., I_lo]. Greedy flooding is optimal for
    broadcast (informed sets are monotone), so feasibility is decidable
    by a single linear scan, and [opt] follows by binary search
    (feasibility is monotone in [hi]). [Brute_force] cross-checks this
    construction exhaustively in the test suite. *)

type plan = {
  fire_time : int array;
      (** [fire_time.(v)] is the time at which [v] transmits;
          [-1] for the sink. *)
  fire_to : int array;
      (** [fire_to.(v)] is the receiver of [v]'s transmission;
          [-1] for the sink. *)
  completion : int;  (** Time of the last transmission. *)
}

val feasible : n:int -> sink:int -> Doda_dynamic.Sequence.t -> lo:int -> hi:int -> bool
(** Can a complete aggregation to the sink be scheduled within
    [I_lo .. I_hi]? ([lo > hi] yields [false] unless [n = 1].) *)

val opt : n:int -> sink:int -> Doda_dynamic.Sequence.t -> int -> int option
(** [opt ~n ~sink s t] is the paper's [opt(t)]: the earliest ending
    time of a convergecast starting at time [t], or [None] when no
    convergecast fits in the remaining sequence (the paper's
    [opt(t) = ∞]). *)

val plan : n:int -> sink:int -> Doda_dynamic.Sequence.t -> start:int -> plan option
(** [plan ~n ~sink s ~start] extracts an optimal convergecast schedule
    starting at [start]: a valid assignment of one transmission per
    non-sink node with [completion = opt(start)]. *)

val t_chain : n:int -> sink:int -> Doda_dynamic.Sequence.t -> int list
(** The finite prefix of the paper's [T]: [T(1) = opt(0)],
    [T(i+1) = opt(T(i) + 1)], listed while finite within the sequence.
    Values are strictly increasing ending times of successive
    convergecasts. *)

val optimal_duration_lazy :
  Doda_dynamic.Schedule.t -> start:int -> horizon:int -> (plan * int) option
(** Like {!plan} bounded by [horizon] interactions: a convergecast
    starting at [start] must fit within the first [horizon]
    interactions or [None] is returned. On a finite schedule this runs
    zero-copy on the backing sequence (binary search with index
    bounds, one scratch shared by all feasibility probes) and
    the returned int is the minimal sufficient prefix length
    ([completion + 1]); on a generator-backed schedule it materialises
    geometrically growing prefixes and returns the prefix length
    finally examined. *)
