(** Closed-form predictions from the paper's proofs, used by the
    benches and tests to compare measurements against theory.

    All formulas are for the randomized adversary on [n] nodes, where
    each interaction is drawn uniformly among the [n(n-1)/2] pairs. *)

val harmonic : int -> float
(** [harmonic k] is [H(k) = 1 + 1/2 + ... + 1/k]; [0.] for [k <= 0]. *)

val expected_broadcast : int -> float
(** Theorem 8: [E(X) = (n-1) H(n-1)] interactions for a broadcast
    (hence also for the full-knowledge convergecast). *)

val expected_waiting : int -> float
(** Theorem 9: [E(X_W) = (n(n-1)/2) H(n-1)]. *)

val expected_gathering : int -> float
(** Theorem 9: [E(X_G) = n(n-1) * sum 1/(i(i+1)) = n(n-1)(1 - 1/n)]. *)

val expected_last_meet : int -> float
(** Theorem 7: the final transmission alone waits [n(n-1)/2]
    interactions in expectation. *)

val expected_sink_meetings : n:int -> k:int -> float
(** Lemma 1: expected interactions until the sink has met [k] distinct
    nodes: [(n(n-1)/2) (H(n-1) - H(n-1-k))], for [0 <= k <= n-1]. *)

val recommended_tau : int -> int
(** Corollary 3: [tau = n^{3/2} sqrt(log n)], the optimum of
    [max(n f, n^2 log n / f)] at [f = sqrt(n log n)] (natural log;
    rounded up; at least 1). *)

val tau_for_f : n:int -> f:float -> int
(** Theorem 10 with an explicit [f]: [max(n f, n^2 log n / f)],
    rounded up. *)

(** {1 Exact phase decompositions}

    Termination times under the randomized adversary are sums of
    independent geometrics; these are the per-phase success
    probabilities, to be fed to [Doda_stats.Geometric_sum] for exact
    finite-[n] means, variances, probability masses and quantiles. *)

val waiting_phases : int -> float array
(** Phase [i] (0-based): [2(n-i-1) / (n(n-1))] — the remaining
    data-owning nodes' chance of meeting the sink. *)

val gathering_phases : int -> float array
(** Phase [i]: [(n-i)(n-i-1) / (n(n-1))] — any two of the remaining
    owners meeting. *)

val broadcast_phases : int -> float array
(** Phase [i]: [2(i+1)(n-i-1) / (n(n-1))] — informed meets
    uninformed. *)
