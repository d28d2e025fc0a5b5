(** Named interaction workloads: one string syntax shared by the CLI,
    the sweep runner, and experiment configs.

    Syntax: [uniform] | [sink-biased:W] | [round-robin] | [waypoint] |
    [community:K:P] | [grid:R:C] | [markov:PON:POFF] | [t-interval:W] |
    [bounded-recurrent:B] | [trace:FILE]. *)

type t =
  | Uniform
  | Sink_biased of float
  | Round_robin
  | Waypoint
  | Community of int * float
  | Grid of int * int
  | Markov of float * float
  | T_interval of int
      (** class-constrained: every tumbling [W]-window is connected
          ({!Doda_dynamic.Tvg_class.gen_t_interval}) *)
  | Bounded_recurrent of int
      (** class-constrained: every footprint edge recurs within [B]
          steps ({!Doda_dynamic.Tvg_class.gen_bounded_recurrent}) *)
  | Trace_file of string

val parse : string -> (t, string) result
(** Human-oriented error messages on the [Error] side. *)

val to_string : t -> string

val syntax : string
(** The one-line syntax summary for help output. *)

val schedule :
  ?telemetry:Doda_obs.Instrument.t -> ?stream:bool -> ?block:int ->
  ?jobs:int -> t -> n:int -> sink:int -> seed:int -> Doda_dynamic.Schedule.t
(** Instantiate the workload. Generator-backed workloads are unbounded;
    [Trace_file] is finite and may enlarge [n] to fit the trace's node
    ids. [telemetry] (default disabled) wraps construction in a
    ["workload/<name>"] span.

    [stream] (default [false]) builds a {e chunked} schedule instead
    ([Schedule.of_fun_chunked], or a [Trace.stream]ed file): memory
    stays O(block) whatever the horizon, the draw stream — and thus
    every run result — is unchanged, but access is forward-only and
    meet-time knowledge is unavailable (fine for Gathering/Waiting).
    [block] is the chunked schedule's block size (default
    [Schedule.of_fun_chunked]'s); it changes no result and is ignored
    without [stream]. [jobs] (default 1) is how many domains
    [Trace.load] may read a [Trace_file] on without [stream]; it
    changes no result either.
    @raise Sys_error / Failure on unreadable or malformed trace
    files, and Failure when [sink] is not below the larger of [n] and
    the trace's node count. *)

val is_finite : t -> bool
(** True only for [Trace_file]. *)

val check : ?reps:int -> t -> n:int -> sink:int -> (unit, string) result
(** The job-parameter check, run by {!Job} before anything is built:
    [0 <= sink < n] with [2 <= n] within the packed-interaction limit
    for generated sources (a trace file widens [n] to fit its nodes,
    so only [sink >= 0] is checked), the
    [t-interval] window ([1] or [>= n - 1]) and the
    [bounded-recurrent] bound ([>= 2 * (n - 1)]), and [reps >= 1] when
    given. The [Error] side is a one-line message. *)

val trace_node_count : n:int -> sink:int -> nodes:int -> (int, string) result
(** The node count of a schedule over a trace of [nodes] nodes for a
    job of [n] nodes: the larger of the two, since the trace widens
    [n] to fit its nodes. The [Error] side is the one-line message for
    a [sink] not below it. {!schedule} applies it to a trace file once
    read, {!Job} to an upload's header. *)

val sweep_checkpoint_key :
  batch:bool -> algo:string -> source:t -> ns:int list -> reps:int ->
  seed:int -> max_steps:int option -> string
(** The checkpoint key pinning a sweep's shape, shared {e verbatim} by
    [doda sweep --checkpoint] and the serve sweep handler, so a
    checkpoint flushed by a draining server resumes under the offline
    CLI (and vice versa). Encodes every parameter that shapes the
    sweep; [max_steps] is appended only when overridden, keeping keys
    from before that flag existed valid. *)
