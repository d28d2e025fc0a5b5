(** Jobs: every decision a run, sweep or classify job makes around the
    engine, defined once for both front ends — the [doda] CLI and
    [doda serve]. A front end maps its flags or its decoded request to
    a {!run} or {!sweep} record, calls {!val-run}, {!val-sweep} or
    {!classify}, and prints or sends its own view of the result.
    Signals stay in the front ends; they reach a sweep through its
    [should_stop] hook.

    A job that cannot run raises {!Rejected} before the engine starts,
    with the same one-line message whichever front end submitted it:
    an unknown algorithm, source or problem, a parameter
    {!Workload.check} refuses, knowledge the schedule cannot give the
    algorithm, a tree algorithm over a trace whose underlying graph is
    disconnected, or a trace file that cannot be read. An upload arrives
    while its job runs, so a line it cannot use raises {!Rejected}
    when the engine reaches it. *)

exception Rejected of string
(** The one-line reason a job cannot run. *)

(** {1 Defaults}

    Read by the CLI flags and by the serve protocol's decoder for
    omitted fields: algorithm [gathering], n 32, sink 0, seed 42,
    source [uniform], problem [aggregation], ns 16,32,64,128, reps
    10. *)

val default_algo : string
val default_n : int
val default_sink : int
val default_seed : int
val default_source : string
val default_problem : string
val default_ns : int list
val default_reps : int

(** {1 Job records} *)

type upload = {
  nodes : int;  (** node count of the uploaded trace *)
  length : int;  (** number of interactions that will be streamed *)
}

type run = {
  algo : string;  (** {!Doda_core.Algorithms.find} name; unused by gossip *)
  n : int;
  sink : int;
  seed : int;
  source : string;  (** {!Workload} syntax; ignored under [upload] *)
  max_steps : int option;
      (** [None]: [200 n² + 10 000] on an unbounded schedule, no limit
          on a finite one *)
  problem : string option;
      (** {!Doda_core.Problem} syntax; [None] is {!default_problem} *)
  stream : bool;
  upload : upload option;
      (** a trace streamed in by the caller instead of [source]: its
          node count replaces [n], the sink must be below it, and its
          lines come from [run]'s [lines] *)
}

type sweep = {
  algo : string;
  ns : int list;
  reps : int;
  seed : int;
  source : string;
  max_steps : int option;  (** per point; [None]: [400 n² + 10 000] *)
  batch : bool;
  stream : bool;
  checkpoint : string option;
      (** checkpoint path ({!Scratch.resolve}d), keyed by
          {!Workload.sweep_checkpoint_key}: a sweep flushed by a
          draining server resumes under [doda sweep --checkpoint], and
          the reverse *)
}

(** {1 Resolution} *)

val algorithm : n:int -> string -> Doda_core.Algorithm.t
(** The named algorithm instantiated for [n] nodes.
    @raise Rejected on an unknown name. *)

val schedule :
  string -> n:int -> sink:int -> seed:int -> Doda_dynamic.Schedule.t
(** [schedule source ~n ~sink ~seed] parses [source], checks it with
    {!Workload.check}, then builds it, unstreamed, with
    {!Workload.schedule}.
    @raise Rejected on a bad source or parameter, or a trace file that
    cannot be read. *)

val reading : (unit -> 'a) -> 'a
(** [reading f] runs [f], a read of a trace file, an upload or a job
    file: [Sys_error], [Failure] and [Invalid_argument] become
    {!Rejected} with the exception's own message. *)

(** {1 Runs} *)

type outcome =
  | Aggregated of Doda_core.Algorithm.t * Doda_core.Engine.result
  | Disseminated of Doda_core.Problem.t * Doda_core.Gossip.result

val run :
  ?telemetry:Doda_obs.Instrument.t -> ?record:[ `All | `Count ] ->
  ?on_step:(unit -> unit) -> ?lines:(unit -> string option) -> ?jobs:int ->
  run -> Doda_dynamic.Schedule.t * outcome
(** Resolve and check the job, build its schedule, then run it:
    aggregation on {!Doda_core.Engine.run} (in an ["engine/run"] span,
    with the telemetry's engine observers), [gossip:K] on
    {!Doda_core.Gossip.run} (in a ["gossip/run"] span). Returns the
    schedule with the full result. [on_step] is called after every
    interaction (a cancellation poll may raise from it). [lines]
    supplies an upload's trace lines, [None] at the end. [jobs]
    (default 1) is how many domains a trace file read without
    [stream] may be read on ({!Workload.schedule}).
    @raise Rejected as described at the top: for an upload, also a
    malformed line, a node id not below the header's node count, or
    fewer lines than the header declares, each with its one-line
    message.
    @raise Invalid_argument when the job has an upload but no
    [lines]. *)

(** {1 Sweeps} *)

val sweep_header : string list
(** The table header of a sweep: [n], [mean], [stderr], [success]. *)

type sweep_end =
  | Done of (float * float) option
      (** every point ran; the log-log [(slope, r2)] fit when there are
          at least two points *)
  | Interrupted of string option
      (** [should_stop] fired; the checkpoint path holding every
          finished replication, if the sweep had one *)

val sweep :
  pool:Pool.t -> ?telemetry:Doda_obs.Instrument.t ->
  ?should_stop:(unit -> bool) -> on_point:(n:int -> string list -> unit) ->
  sweep -> sweep_end
(** Check every point, open the checkpoint, then run the points, one
    workload instance per stream handed to the factory. A scalar sweep
    runs its points in order, each with
    {!Experiment.run_schedule_factory}, whose replications fan out
    over [pool]. A batched sweep ([batch]) runs its points across
    [pool]: each slot claims the next point in ns order and runs it
    alone with {!Experiment.run_batched_factory} (no pipeline),
    recording into its own telemetry shard. Either way
    [on_point ~n cells] is called once per point, in ns order, as the
    finished prefix grows ([cells] is the table row under
    {!sweep_header}); for a batched sweep it may be called from a
    worker domain, never by two at once. Rows, checkpoints and counters
    do not depend on the pool's size. On [should_stop], a batched sweep
    lets the points already claimed finish, keeps them whole in the
    checkpoint, and reports [Interrupted]. The checkpoint is closed on
    every exit. Each stream's schedule is {!sweep_schedule}'s.
    @raise Rejected as described at the top. *)

val sweep_span_capacity : sweep -> int
(** The span ring a traced sweep needs to keep every span it records —
    two per replication of a scalar sweep, two per batched point, plus
    a few per sweep — capped at [2^16] spans (per shard). Past the cap
    the ring keeps the newest spans and counts the dropped ones
    ({!Doda_obs.Span.dropped}, [droppedEvents] in a Chrome trace). *)

val sweep_schedule :
  batch:bool -> stream:bool -> Workload.t -> n:int ->
  Doda_core.Algorithm.t -> Doda_prng.Prng.t -> Doda_dynamic.Schedule.t
(** [sweep_schedule ~batch ~stream source ~n algo rng] is the schedule
    {!val-sweep} builds from [rng] for a point of [n] nodes (sink 0):
    the workload seeded by one draw of [rng]. A batched point's one
    schedule is chunked with the default block under [stream],
    unstreamed otherwise. A scalar replication whose algorithm needs
    no knowledge ({!Experiment.streams_replication}) is chunked with
    {!Experiment.replication_block} entries, with or without [stream];
    any other is unstreamed. Tables and checkpoints do not depend on
    the form.
    @raise Rejected on a trace file that cannot be read. *)

(** {1 Duels} *)

type duel = {
  adversary : Doda_adversary.Adversary.t;
  nodes : int;  (** the adversary's node count *)
  knowledge : Doda_core.Knowledge.t option;
      (** what the adversary hands the algorithm: thm3's underlying
          graph, nothing otherwise *)
  algorithm : Doda_core.Algorithm.t;  (** instantiated for [nodes] *)
}

val duel : adversary:string -> n:int -> string -> duel
(** [duel ~adversary ~n algo] resolves a [doda duel] against [thm1],
    [thm3] or [spiteful] (the only one that plays over [n] nodes).
    @raise Rejected on an unknown adversary or algorithm, [spiteful]
    with [n < 3], or an algorithm needing knowledge the adversary cannot
    give: an adaptive adversary has no future, so never meetTime, the
    full schedule or a node's own future, and only thm3 gives its
    underlying graph. *)

(** {1 Classification} *)

val classify :
  ?window:int -> ?bound:int -> ?nodes:int -> Doda_dynamic.Sequence.t ->
  string list
(** The report lines of [doda classify] for a trace (after its
    [trace:] line): size, footprint, the {!Doda_dynamic.Tvg_class}
    summary, then membership in [t-interval(window)] and
    [bounded-recurrent(bound)] when given. The trace has [nodes] nodes
    or as many as its largest id needs, whichever is more.
    @raise Rejected on a [window] or [bound] below 1, before any
    classification runs. *)
