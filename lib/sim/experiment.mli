(** Replicated measurements of algorithm runs.

    A measurement runs an algorithm several times against independently
    seeded schedules and collects the number of interactions to
    termination. The unit reported is "interactions processed until the
    final transmission, inclusive" — [duration + 1] — matching the
    paper's "terminates in [X] interactions".

    {b Parallelism and determinism.} Replications are embarrassingly
    parallel, and every function below that accepts [?pool]/[?jobs] can
    fan its replications out over a {!Pool} of domains. Results are
    {e bit-identical} to the sequential path regardless of job count:
    the per-replication PRNG streams are always split from the master
    {e sequentially, in replication order, on the calling domain},
    before any work is dispatched (see {!split_seeds}); workers receive
    ready-made independent streams and never touch shared random state.

    {b Thread-safety invariant.} A {!Doda_dynamic.Schedule.t} memoizes
    lazily and is not thread-safe, so a schedule must never be shared
    across replications running on different domains. The factory
    pattern of {!run_schedule_factory} enforces this by construction:
    each replication builds its own schedule from its own stream,
    inside the worker. Any [f] passed to {!replicate_par} must do the
    same. *)

type measurement = {
  label : string;
  n : int;  (** number of nodes *)
  samples : float array;  (** interactions to completion, terminated runs *)
  failures : int;  (** runs that did not terminate within their budget *)
}

exception Interrupted
(** Raised by the factory sweeps when their [should_stop] hook fires —
    after every in-flight replication finished and recorded to the
    checkpoint, so the checkpoint on disk is whole and a rerun resumes
    bit-identically. The serve job queue (cancellation, graceful
    drain) and the CLI's Ctrl-C handler are the raisers. *)

val split_seeds : replications:int -> seed:int -> Doda_prng.Prng.t array
(** [split_seeds ~replications ~seed] is the array of independent
    streams that replication [0 .. replications-1] of [seed] receive,
    split in index order from the master. Both {!replicate} and
    {!replicate_par} consume exactly this array. *)

val replicate : replications:int -> seed:int -> (Doda_prng.Prng.t -> 'a) -> 'a array
(** [replicate ~replications ~seed f] calls [f] once per replication
    with independent split streams derived from [seed]. Sequential. *)

val replicate_par :
  ?pool:Pool.t -> ?jobs:int -> ?telemetry:Doda_obs.Instrument.t ->
  replications:int -> seed:int -> (Doda_prng.Prng.t -> 'a) -> 'a array
(** Parallel {!replicate}: same seeds, same results, any job count.
    [f] runs on worker domains and must not share mutable state across
    replications (build schedules inside [f]). Uses [pool] if given;
    otherwise a transient pool of [jobs] slots (default
    {!Pool.default_jobs}, i.e. [DODA_JOBS] or the recommended domain
    count). [~jobs:1] runs on the calling domain.

    [telemetry] (default {!Doda_obs.Instrument.disabled}) records one
    ["replicate"] span per replication. With telemetry enabled, each
    execution slot records into its own shard and the shards are
    folded back deterministically after the batch
    ({!Pool.map_array_sharded}), so aggregated counters are identical
    at any job count; disabled telemetry takes the exact
    uninstrumented code path. *)

val dispatch_instrumented :
  ?pool:Pool.t -> ?jobs:int -> telemetry:Doda_obs.Instrument.t ->
  (Doda_obs.Instrument.t -> 'a -> 'b) -> 'a array -> 'b array
(** [dispatch_instrumented ~telemetry f items] maps [f tel] over
    [items] on [pool] (else a transient pool of [jobs] slots; [jobs]
    absent or 1 runs on the calling domain), results in input order.
    With [telemetry] enabled every execution slot records into its own
    {!Doda_obs.Instrument.shard}, folded back with
    {!Doda_obs.Instrument.absorb} in slot order after the batch
    ({!Pool.map_array_sharded}), so counters are identical at any job
    count; disabled telemetry hands [f] the shared off handle on the
    plain {!Pool.map_array} path. An item that raises re-raises as in
    {!Pool.map_array}. *)

val of_results : label:string -> n:int -> Doda_core.Engine.result array -> measurement

(** {1 Replication schedules} *)

val streams_replication : Doda_core.Algorithm.t -> bool
(** [streams_replication algo] is [true] when [algo] needs no
    knowledge ([requires = []]): it reads its schedule once, forward,
    and nothing reads the schedule after the run, so a replication's
    schedule may be a chunked one of {!replication_block} entries
    instead of a live {!Doda_dynamic.Schedule.of_fun} prefix with its
    sink-meeting index. Every run result is the same either way. An
    algorithm that reads the schedule again (meet times, the full
    schedule, the underlying graph, its own future) keeps the live
    form. *)

val replication_block : int
(** The block of a streamed replication's schedule: 256 entries, the
    largest array OCaml allocates on the minor heap. A chunked
    schedule decodes whole blocks, so its generator may run up to 255
    interactions past the run's end; that is safe because each
    replication's generator owns its stream. *)

val replication_schedule :
  Doda_core.Algorithm.t -> n:int -> sink:int ->
  (int -> Doda_dynamic.Interaction.t) -> Doda_dynamic.Schedule.t
(** [replication_schedule algo ~n ~sink gen] is the schedule one
    replication of [algo] runs over: [gen] streamed through
    {!replication_block} when {!streams_replication} holds, a live
    [Schedule.of_fun ~n ~sink gen] otherwise. [gen] must draw from a
    stream of its own. *)

val run_uniform :
  ?pool:Pool.t -> ?jobs:int -> ?telemetry:Doda_obs.Instrument.t ->
  ?replications:int -> ?seed:int -> ?sink:int -> ?max_steps:int ->
  n:int -> Doda_core.Algorithm.t -> measurement
(** [run_uniform ~n algo] measures [algo] against the uniform
    randomized adversary. Defaults: 20 replications, seed 42, sink 0,
    [max_steps = 200 * n^2 + 10_000] (an order of magnitude above the
    slowest expected algorithm, Waiting). Each replication's schedule
    is {!replication_schedule}'s. Sequential unless
    [?pool]/[?jobs] is given; the measurement is identical either
    way. *)

val run_schedule_factory :
  ?pool:Pool.t -> ?jobs:int -> ?telemetry:Doda_obs.Instrument.t ->
  ?checkpoint:Checkpoint.t -> ?should_stop:(unit -> bool) ->
  ?replications:int -> ?seed:int -> max_steps:int ->
  label:string -> n:int ->
  (Doda_prng.Prng.t -> Doda_dynamic.Schedule.t) ->
  Doda_core.Algorithm.t -> measurement
(** Generic form: a fresh schedule per replication (never shared across
    domains — see the thread-safety invariant above). Runs the engine
    with [~record:`Count]; only durations are kept.

    [telemetry] records ["replicate"] and ["schedule/build"] spans per
    replication and attaches {!Doda_obs.Instrument.engine_observers}
    ([engine.steps], [engine.transmissions], [engine.duration], ...)
    to every run, with the same determinism guarantee as
    {!replicate_par}. Samples and failures are unaffected by
    telemetry.

    [checkpoint] makes the sweep resumable: each finished
    replication's duration is recorded (and flushed) under its slot
    index, recorded slots are skipped on the next run, and re-run
    slots receive {e the same} pre-split streams — so interrupt +
    resume yields the measurement bit-identical to an uninterrupted
    run. Telemetry of skipped slots is not replayed (counters cover
    only the work actually performed this run).

    [should_stop] (default [fun () -> false], read from pool worker
    domains — make it an [Atomic] or plain flag read) is polled at
    every replication-slot boundary; once it returns [true], slots not
    yet started raise {!Interrupted} instead of running, in-flight
    slots finish and record, and {!Interrupted} reaches the caller
    after the batch drained. With a [checkpoint] this is the graceful
    half of kill-and-resume: cancel/Ctrl-C/drain flips the flag, the
    checkpoint stays whole, a rerun resumes bit-identically. *)

val run_batched_factory :
  ?pool:Pool.t -> ?telemetry:Doda_obs.Instrument.t ->
  ?checkpoint:Checkpoint.t -> ?should_stop:(unit -> bool) ->
  ?replications:int -> ?seed:int -> max_steps:int ->
  label:string -> n:int ->
  (Doda_prng.Prng.t -> Doda_dynamic.Schedule.t) ->
  Doda_core.Algorithm.t -> measurement
(** Lockstep dual of {!run_schedule_factory}: ONE schedule, built once
    by [factory] from a dedicated stream, with all replications run
    over it in a single {!Doda_core.Batch_engine.run_reps} pass on the
    calling domain. Semantically a different experiment — R lanes over
    one trace (the adversary-replay setting of the paper and the
    class-constrained workloads) versus R independent traces — which
    is why it is a separate entry point rather than a mode of the
    scalar sweep. With any algorithm of {!Doda_core.Algorithms.names}
    a point is one run repeated R times, so its standard error is 0;
    the run executes once: when {!Doda_core.Batch_engine.runs_once}
    holds, no per-slot stream is split and the pass asks for one
    result, whose duration every pending slot takes.

    [telemetry] records, per point, one ["schedule/build"] span, one
    ["batch"] span and the [batch.runs] / [batch.decodes] /
    [batch.rep_steps] counters: [rep_steps] counts the lane steps
    actually executed, so [rep_steps / decodes] is the decode
    amortisation (1 for a [Once] algorithm), and dividing further by
    the replication count gives batch occupancy. Chunked passes also
    fold in [stream.refills]
    ({!Doda_obs.Instrument.record_chunk_stats} — the deterministic
    counter only).

    Works on any schedule form the batch engine accepts; with a
    chunked factory the sweep streams in O(block) memory, and [pool]
    adds a pipelined producer ({!Pool.pipeline}). Without [pool] every
    block is decoded inline on the calling domain, which is how
    {!Job.sweep} runs a batched sweep's points, one per slot, across
    its pool. Results are bit-identical at any job count: the pool
    only moves {e where} block decodes happen, never what they
    produce.

    Seed discipline: the master's first split is the schedule stream,
    the next [replications] splits are the per-slot streams (coin
    rules only), all drawn in slot order on the calling domain.
    [checkpoint] resumes
    bit-identically: cached slots are skipped and the remaining lanes
    receive exactly the streams an uninterrupted run would have
    (streams are independent across slots, so running a subset of
    lanes does not perturb the rest).

    [should_stop] is checked {e before} the lockstep pass (the pass is
    one indivisible batch): in a multi-point sweep, interruption lands
    between points, leaving whole points checkpointed.

    @raise Invalid_argument if the algorithm has no batch rule, or as
    {!Doda_core.Batch_engine.run_reps}. *)

val replicate_duels :
  ?pool:Pool.t -> ?jobs:int -> ?knowledge:Doda_core.Knowledge.t ->
  replications:int -> seed:int -> max_steps:int -> n:int -> sink:int ->
  Doda_core.Algorithm.t ->
  (Doda_prng.Prng.t -> Doda_adversary.Adversary.t) ->
  (Doda_core.Engine.result * Doda_dynamic.Sequence.t) array
(** Replicated {!Doda_adversary.Duel.run} comparisons against adaptive
    adversaries, one independently seeded adversary per replication
    (built inside the worker from its split stream). Same determinism
    guarantee as {!replicate_par}. *)

val mean : measurement -> float
(** Mean of the samples. @raise Invalid_argument if every run failed. *)

val summary : measurement -> Doda_stats.Descriptive.summary

val success_rate : measurement -> float
