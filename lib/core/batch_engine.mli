(** Replications over one schedule decode.

    {!run_reps} returns the results of [R] replications of one
    algorithm over one schedule. Every algorithm of {!Algorithms.names}
    is a deterministic function of the interaction sequence (its batch
    rule is [Once]), so its [R] replications are one run repeated [R]
    times (their standard error is 0): [run_reps] executes it once, with
    {!Engine.run}, and returns [R] copies. Only the coin rules draw per
    replication, from per-replication streams ([rngs]); they run in one
    lockstep pass, bit-parallel, with per-node holder sets stored as
    bit planes — {!Bit_planes.word_bits} replications per native word —
    so the "do both endpoints still hold data?" test for a whole word
    of replications is two loads and an [land]. Per-replication work
    happens only on coin draws and actual transmissions, which the
    transmit-once model bounds by [R * (n - 1)] over the entire batch.

    The results are {e bit-identical} to running {!Engine.run}
    separately per replication: same stop reasons, durations, step
    counts, transmission logs, holder sets, and — for coin algorithms —
    the same PRNG draw sequences (a differential test enforces this per
    algorithm).

    {b Schedule forms.} The coin pass reads every form — finite,
    generator and chunked — through one
    {!Doda_dynamic.Schedule.cursor}, the scalar engine's read path: a
    generator is materialised exactly as far as the pass reads, and a
    chunked (streamed) block is generated once and drained by every
    lane before the ring recycles it — memory stays O(block), never
    O(T). The chunked pass must run on a single consumer domain
    (parallelism comes from the lanes, and optionally from a pipelined
    producer via {!Doda_dynamic.Schedule.chunk_prefetch}). *)

(** {1 Occupancy statistics} *)

type stats = {
  mutable decodes : int;
      (** Lockstep steps executed — schedule interactions decoded
          once for the whole batch. *)
  mutable lane_steps : int;
      (** Sum over decodes of live coin replications — the lane steps
          actually executed; a [Once] algorithm executes one lane
          whatever [R] is, so both counters grow by its run's [steps].
          [lane_steps / decodes] is the amortisation factor; dividing
          further by the batch width gives occupancy — how much of the
          batch the live mask keeps busy. *)
}

val stats : unit -> stats
(** A zeroed counter pair; pass the same record to several calls to
    accumulate. *)

(** {1 Entry points} *)

val runs_once : Algorithm.t -> bool
(** Whether {!run_reps} executes [algo] once whatever the replication
    count: its batch rule is [Once], so every replication is the same
    run. [false] for the coin rules and for an algorithm without a
    batch rule. A caller that needs only what the runs share (a
    duration, a step count) can ask [run_reps] for one result instead
    of [r] equal ones. *)

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

    A [Once] rule runs once, through {!Engine.run}: the [r] results
    are equal, each has its own [holders] array, and under [`All] they
    share one transmission log. Coin rules run [r] bit-parallel lanes
    in one lockstep pass.

    [rngs] supplies one independent stream per replication — required
    for coin algorithms, ignored otherwise. Stream identity with the
    scalar path: the scalar [Engine.run] calls [algo.make], which
    splits the algorithm's captured master once per run, so passing
    [Prng.split_n master r] here hands replication [i] exactly the
    stream scalar replication [i] would have drawn. Draws happen in
    the same per-replication order as scalar runs (streams are
    independent across replications, so cross-replication interleaving
    is immaterial).

    @raise Invalid_argument if [algo.batch = None], if [rngs] is
    missing or shorter than [r] for a coin algorithm, on a negative
    [r], or if [max_steps] is missing for an unbounded schedule; a
    [Once] run raises as {!Engine.run} would (missing knowledge, such
    as a meet-time oracle over a chunked schedule). *)
