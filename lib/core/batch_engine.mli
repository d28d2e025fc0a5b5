(** Lockstep batch engine: many executions over one schedule decode.

    The scalar {!Engine} decodes the schedule once per run; replication
    sweeps therefore decode the same interactions once per replication
    and once per rival algorithm. This module amortises the decode: it
    plays {e one} pass over the schedule and advances many executions
    in lockstep, in two shapes.

    {b Replications} ({!run_reps}): [R] replications of one algorithm
    over one schedule. Every algorithm of {!Algorithms.names} is a
    deterministic function of the interaction sequence, so its [R]
    replications are one run repeated [R] times (their standard error
    is 0): [run_reps] executes it once and returns [R] copies. Only
    the coin rules draw per replication, from per-replication streams
    ([rngs]); they run
    bit-parallel, with per-node holder sets stored as bit planes —
    {!Bit_planes.word_bits} replications per native word — so the "do both
    endpoints still hold data?" test for a whole word of replications
    is two loads and an [land]. Per-replication work happens only on
    coin draws and actual transmissions, which the transmit-once model
    bounds by [R * (n - 1)] over the entire batch.

    {b Lockstep algorithm sweep} ({!sweep}): one execution of each of
    up to many rival algorithms over the same schedule, one decode per
    step shared by every live lane. Meet-time policies share a single
    {!Doda_dynamic.Schedule.stepper} oracle whose incremental search
    materialises generator schedules only as far as the earliest
    undecided meet — not to the probe limit like the eager oracle —
    which is where the policies-suite speedup comes from.

    Both entry points produce {!Engine.result}s that are {e
    bit-identical} to running {!Engine.run} separately per replication
    or per algorithm: same stop reasons, durations, step counts,
    transmission logs, holder sets, and — for coin algorithms — the
    same PRNG draw sequences (a differential test enforces this per
    algorithm).

    {b Schedule forms.} Both loops read every form — finite, frozen,
    generator and chunked — through one
    {!Doda_dynamic.Schedule.cursor}, the scalar engine's read path: a
    generator is materialised exactly as far as the pass reads (meet
    probes may materialise further), and a chunked (streamed) block is
    generated once and drained by every lane before the ring recycles
    it — memory stays O(block), never O(T). The chunked pass must run
    on a single consumer domain (parallelism comes from the lanes, and
    optionally from a pipelined producer via
    {!Doda_dynamic.Schedule.chunk_prefetch}). Meet-time policies are
    the exception: their oracle needs replay, which a chunked
    schedule refuses by design. *)

(** {1 Occupancy statistics} *)

type stats = {
  mutable decodes : int;
      (** Lockstep steps executed — schedule interactions decoded
          once for the whole batch. *)
  mutable lane_steps : int;
      (** Sum over decodes of live lanes (coin replications or
          algorithms) — the lane steps actually executed; a
          deterministic {!run_reps} executes one lane whatever [R] is.
          [lane_steps / decodes] is the amortisation factor; dividing
          further by the batch width gives occupancy — how much of the
          batch the live mask keeps busy. *)
}

val stats : unit -> stats
(** A zeroed counter pair; pass the same record to several calls to
    accumulate. *)

(** {1 Entry points} *)

val batch_supported : Algorithm.t -> bool
(** Whether {!run_reps} can execute the algorithm bit-parallel, i.e.
    [algo.batch <> None]. Algorithms without a batch rule still run on
    {!sweep}'s generic lane. *)

val runs_once : Algorithm.t -> bool
(** Whether {!run_reps} executes [algo] once whatever the replication
    count: its batch rule is deterministic ([Token_sink], [Gather],
    [Meet_policy]), so every replication is the same run. [false] for
    the coin rules and for an algorithm without a batch rule. A caller
    that needs only what the runs share (a duration, a step count) can
    ask [run_reps] for one result instead of [r] equal ones. *)

val run_reps :
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?rngs:Doda_prng.Prng.t array ->
  ?stats:stats ->
  Algorithm.t ->
  Doda_dynamic.Schedule.t ->
  int ->
  Engine.result array
(** [run_reps algo sched r] returns the results of [r] replications
    of [algo] over [sched] in replication order. [max_steps] and
    [record] mean exactly what they do in {!Engine.run} (and
    [max_steps] is mandatory for generator schedules).

    A deterministic rule ([Token_sink], [Gather], [Meet_policy]) runs
    once, on {!sweep}'s one-lane path: the [r] results are equal, each
    has its own [holders] array, and under [`All] they share one
    transmission log. Coin rules run [r] bit-parallel lanes in one
    lockstep pass.

    [rngs] supplies one independent stream per replication — required
    for coin algorithms, ignored otherwise. Stream identity with the
    scalar path: the scalar [Engine.run] calls [algo.make], which
    splits the algorithm's captured master once per run, so passing
    [Prng.split_n master r] here hands replication [i] exactly the
    stream scalar replication [i] would have drawn. Draws happen in
    the same per-replication order as scalar runs (streams are
    independent across replications, so cross-replication interleaving
    is immaterial).

    @raise Invalid_argument if [algo.batch = None] (see
    {!batch_supported}), if [rngs] is missing or shorter than [r] for
    a coin algorithm, on a negative [r], or if [max_steps] is missing
    for an unbounded schedule. *)

val sweep :
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?stats:stats ->
  Algorithm.t list ->
  Doda_dynamic.Schedule.t ->
  Engine.result array
(** [sweep algos sched] executes every algorithm in [algos] over
    [sched] in one lockstep pass and returns results in list order —
    element [k] equals [Engine.run ?max_steps ?record (List.nth algos
    k) sched].

    Algorithms with a token or gather batch rule run on dedicated bit
    lanes; meet-time policies share one lazy stepper oracle (one probe
    per interaction endpoint per step, under the maximum live lane
    limit — answers are per-lane filtered, which is equivalent because
    every lane asks for the {e first} meet after the current time).
    Algorithms without a rule — and coin algorithms, whose instance
    creation must split their master stream exactly where the scalar
    path would — run on a generic lane that drives their
    [Algorithm.instance] with scalar-engine semantics, including
    knowledge construction and misbehaviour checks. Instances are
    created in list order before the pass begins, which matches the
    split order of consecutive scalar runs.

    More than {!Bit_planes.word_bits} algorithms are processed in
    chunks of that many (each chunk is its own lockstep pass).

    Safety: a sweep over a live (unfrozen) schedule materialises it
    and must stay confined to one domain, like any live-schedule user;
    sweeps over a frozen schedule only mutate private cursors.

    @raise Invalid_argument as {!Engine.run} would: missing knowledge
    for a generic lane, missing [max_steps] on an unbounded schedule,
    or a misbehaving generic algorithm. *)
