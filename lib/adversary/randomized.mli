(** The randomized adversary (Section 4) and its non-uniform variant
    (open question 3 of the paper's conclusion). *)

val uniform : Doda_prng.Prng.t -> n:int -> Adversary.t
(** Each interaction drawn uniformly among the [n(n-1)/2] pairs. *)

val uniform_schedule : Doda_prng.Prng.t -> n:int -> sink:int -> Doda_dynamic.Schedule.t
(** The same adversary as a lazy {!Doda_dynamic.Schedule.t}, which is
    what knowledge-using algorithms (meetTime, full knowledge) run
    against: the oracle and the execution observe one consistent
    draw. *)

val weighted : Doda_prng.Prng.t -> weights:float array -> Adversary.t
(** Endpoints drawn (distinctly) proportionally to per-node weights. *)

val sink_biased_schedule :
  Doda_prng.Prng.t -> n:int -> sink:int -> sink_weight:float -> Doda_dynamic.Schedule.t
(** All nodes weight 1, the sink weighted [sink_weight]: a one-knob
    non-uniform adversary ([sink_weight = 1.] recovers near-uniform
    pair sampling up to the two-endpoint draw), as a lazy schedule. *)
