(** One telemetry handle: a {!Metrics} registry bundled with a
    {!Span} sink, threaded through the stack as [?telemetry].

    The {!disabled} instance is free by construction: every operation
    is a single branch and {!engine_observers} returns [[]], so a run
    with telemetry off executes the same code as an uninstrumented
    one. *)

type t

val create : ?span_capacity:int -> ?resources:bool -> unit -> t
(** [resources] (default [false]) turns on memory sampling: every
    successful {!with_span} (and explicit {!sample_resources}) records
    the [obs.heap_words] and [obs.rss_bytes] gauges via {!Resource}.
    Off by default because gauge values depend on GC timing and domain
    layout — they are {e not} byte-identical across job counts, unlike
    every other metric, so sweeps whose summaries are diffed at
    several [--jobs] must leave this off. *)

val disabled : t
val enabled : t -> bool
val metrics : t -> Metrics.t
val spans : t -> Span.t

val shard : t -> t
(** Per-worker-slot shard (identity when disabled); see
    {!Metrics.shard} and {!Span.shard}. *)

val absorb : t -> t -> unit
(** [absorb t child] folds a shard back; deterministic for metrics
    (integer sums / maxima). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Times [f] into the span sink; with [resources] on, also samples
    the memory gauges at the (successful) span boundary. *)

val sample_resources : t -> unit
(** Record the current {!Resource.heap_words} / {!Resource.rss_bytes}
    into the [obs.heap_words] / [obs.rss_bytes] max-gauges. No-op
    unless the handle was created with [~resources:true]. *)

val record_chunk_stats : t -> Doda_dynamic.Schedule.t -> unit
(** Add a chunked schedule's [refills]
    ({!Doda_dynamic.Schedule.chunk_stats}) to the [stream.refills]
    counter. It depends only on the draw stream and block size, so it
    is safe in jobs-invariant output; the pipeline's timing counters
    are left out. No-op when disabled; a non-chunked schedule adds
    0. *)

val summary : t -> string
(** Metrics table followed by the span table; [""] when disabled. *)

val write_trace : ?process_name:string -> t -> string -> unit
(** Chrome trace-event JSON with the metrics snapshot embedded. *)

val engine_observers : t -> Doda_core.Engine.observer list
(** [[]] when disabled. Otherwise one observer maintaining
    [engine.steps], [engine.transmissions], [engine.runs],
    [engine.stop.*] counters and the [engine.duration] histogram
    (power-of-two buckets). *)
