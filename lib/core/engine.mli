(** Execution engine: plays a schedule of interactions against a DODA
    algorithm and enforces the model of Section 2.

    Initially every node owns a data item. During interaction
    [I_t = {u, v}], if both nodes still own data the algorithm may
    order one to transmit to the other; the receiver aggregates. A node
    that transmitted owns nothing, can never transmit again, and can no
    longer receive. The run terminates when the sink is the only node
    owning data.

    Every execution goes through one run-core: {!run} drives it from a
    schedule, {!run_state} from an arbitrary pull source (how
    {!Doda_adversary.Duel} plays adaptive adversaries), and the
    {!state} API steps it one interaction at a time for debuggers,
    visualisations and tests. Model enforcement therefore lives in
    exactly one place, and {!observer}s can watch any of them. *)

type transmission = Run_log.transmission = {
  time : int;
  sender : int;
  receiver : int;
}

type stop_reason =
  | All_aggregated  (** the sink is the only data owner *)
  | Schedule_exhausted  (** finite schedule ended first *)
  | Step_limit  (** [max_steps] interactions processed *)

type result = {
  stop : stop_reason;
  duration : int option;
      (** Time (interaction index) of the final transmission, when
          [stop = All_aggregated]; the paper's [duration(A, I)]. *)
  steps : int;  (** Interactions processed. *)
  log : Run_log.t;
      (** Flat transmission log, chronological. Empty when the run
          recorded with [`Count]. *)
  transmission_count : int;
      (** Number of transmissions, regardless of recording mode. *)
  holders : bool array;
      (** Who still owns data at the end. A fresh copy: mutating it
          cannot corrupt a live {!state} or other results. *)
}

val transmissions : result -> transmission list
(** [Run_log.to_list result.log] — the seed engine's boxed
    chronological list, for consumers that want one. *)

(** {1 Observers}

    An observer watches a run from the outside: streaming progress,
    live validation, metric counters. All three callbacks are
    optional; an engine with no step observers pays one boolean test
    per interaction, so the [`Count] measurement path stays
    allocation-free. The plumbing is polymorphic in the result a run
    packages: {!Gossip}'s observers are [Gossip.result watch]. *)

type 'r watch
(** An observer of a run whose result is ['r]. *)

type observer = result watch

val watch :
  ?on_step:(time:int -> Doda_dynamic.Interaction.t -> unit) ->
  ?on_transmit:(time:int -> sender:int -> receiver:int -> unit) ->
  ?on_finish:('r -> unit) ->
  unit ->
  'r watch
(** [on_step] fires after every interaction is processed (transmitting
    or not); [on_transmit] after each committed transmission (an
    informative transfer, under gossip); [on_finish] once, with the
    packaged result (each time {!finish} is called, for manual
    steppers). *)

val observer :
  ?on_step:(time:int -> Doda_dynamic.Interaction.t -> unit) ->
  ?on_transmit:(time:int -> sender:int -> receiver:int -> unit) ->
  ?on_finish:(result -> unit) ->
  unit ->
  observer
(** {!watch} for an aggregation run. *)

(** {1 Whole runs} *)

val run :
  ?knowledge:Knowledge.t ->
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  Algorithm.t ->
  Doda_dynamic.Schedule.t ->
  result
(** [run algo sched] executes [algo] against [sched].

    [knowledge] defaults to [Knowledge.for_schedule sched algo.requires]
    — exactly the oracles the algorithm declares.

    [max_steps] bounds the number of interactions processed; it
    defaults to the schedule length and is mandatory for generator
    schedules. The engine stops early as soon as aggregation completes.

    [record] (default [`All]) selects what the result carries. [`All]
    records the full transmission log. [`Count] skips the per-event log
    append — [result.log] is empty — and keeps only
    [transmission_count]; [stop], [duration], [steps] and [holders] are
    identical to an [`All] run (a determinism regression test enforces
    this). Use [`Count] on replication-heavy measurement paths that
    only consume durations.

    @raise Invalid_argument if required knowledge cannot be built, if
    [max_steps] is missing for an unbounded schedule, or if the
    algorithm misbehaves (returns a non-endpoint, or makes the sink
    transmit). *)

(** {1 The run-core skeleton}

    What every run-core ({!run}, {!Batch_engine}, {!Gossip},
    {!Flooding_aggregation}) shares besides the schedule cursor
    ({!Doda_dynamic.Schedule.cursor}): one bound rule and one observer
    plumbing. The kernels differ only in their step rule. *)

val limit : ?max_steps:int -> what:string -> Doda_dynamic.Schedule.t -> int
(** The number of interactions a run may process: [max_steps] capped by
    a finite schedule's length, or the length alone.
    @raise Invalid_argument, with a message that starts with [what],
    when both are missing: an unbounded schedule needs [max_steps]. *)

val stop_reason :
  Doda_dynamic.Schedule.t -> clock:int -> solved:bool -> stop_reason
(** Why a run that processed [clock] interactions stopped: solved, or
    the schedule's end (the clock is compared with the schedule length,
    not the limit, so [max_steps = len] reports exhaustion), or the
    step limit. *)

type 'r watchers = private {
  step_obs : (time:int -> Doda_dynamic.Interaction.t -> unit) array;
  transmit_obs : (time:int -> sender:int -> receiver:int -> unit) array;
  finish_obs : ('r -> unit) array;
  has_step_obs : bool;  (** [step_obs] is not empty *)
}
(** A run's observers as callback arrays; a kernel tests
    [has_step_obs] inline on every step. *)

val watchers : 'r watch list -> 'r watchers

val notify_step :
  'r watchers -> t:int -> Doda_dynamic.Interaction.t -> unit

val notify_transmit :
  'r watchers -> t:int -> sender:int -> receiver:int -> unit

val notify_finish : 'r watchers -> 'r -> 'r
(** Calls every [on_finish] with the result, then returns it. *)

(** {1 Stepping} *)

type state
(** A run in progress. *)

val start :
  ?knowledge:Knowledge.t ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  Algorithm.t ->
  Doda_dynamic.Schedule.t ->
  state
(** [start algo sched] initialises a run without executing anything.
    [record] as in {!run} (default [`All] — steppers usually want the
    log). @raise Invalid_argument on missing knowledge. *)

val start_source :
  ?knowledge:Knowledge.t ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  n:int ->
  sink:int ->
  source:(state -> Doda_dynamic.Interaction.t option) ->
  Algorithm.t ->
  state
(** [start_source ~n ~sink ~source algo] initialises a run whose
    interactions are pulled from [source] instead of a pre-committed
    schedule — the hook adaptive adversaries plug into. [source st] is
    asked for the interaction at time [time st] and may inspect the
    live state (e.g. {!live_holders}); [None] ends the execution.
    [knowledge] defaults to [Knowledge.empty]: a pull source has no
    future to build oracles from.

    @raise Invalid_argument on invalid [n]/[sink] or missing
    knowledge. *)

type step_outcome =
  | Stepped of transmission option
      (** One interaction processed; the transmission it carried, if
          any. *)
  | Finished of stop_reason
      (** Nothing processed: aggregation already complete, or the
          schedule ended. [Step_limit] is never returned by [step]
          (the caller owns the loop). *)

val step : state -> step_outcome
(** Process the next interaction.
    @raise Invalid_argument on algorithm misbehaviour. *)

val run_state : state -> max_steps:int -> result
(** Drive a state to completion through the same run-core as {!run}:
    stops at aggregation, source exhaustion, or [max_steps]. *)

val time : state -> int
(** Interactions processed so far. *)

val owners : state -> int
(** Nodes currently owning data. *)

val problem : state -> Problem.t
(** The problem this run executes — always [Problem.Aggregation] for
    this engine (the termination predicate, initial ownership and
    success criterion are read from it; {!Gossip} is the run-core for
    [Dissemination]). *)

val owns : state -> int -> bool

val holders_snapshot : state -> bool array
(** Fresh copy of the ownership vector. *)

val live_holders : state -> bool array
(** The engine's own ownership vector, no copy — read-only by
    contract (mutating it corrupts the run). For per-step consumers
    (adversary views, observers) that must not allocate. *)

val last_transmission : state -> transmission option
(** Most recent transmission, if any — tracked even under [`Count]
    recording. *)

val finish : state -> stop_reason -> result
(** Package the current state as a {!result} (e.g. after deciding to
    stop at a step limit). Runs [on_finish] observers. *)

(** {1 Result helpers} *)

val count_owners : result -> int
(** Number of nodes still owning data at the end. *)

val pp_result : Format.formatter -> result -> unit
