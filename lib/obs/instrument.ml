(* One handle bundling a metrics registry with a span sink — the value
   threaded through Experiment/Workload/CLI as [?telemetry].

   [disabled] is the shared off instance: every operation on it is a
   single branch, and [engine_observers] returns [], so a run with
   telemetry off executes exactly the same code as one with no
   telemetry at all. *)

module Engine = Doda_core.Engine

type t = { metrics : Metrics.t; spans : Span.t; resources : bool }

let create ?(span_capacity = 4096) ?(resources = false) () =
  {
    metrics = Metrics.create ();
    spans = Span.create ~capacity:span_capacity ();
    resources;
  }

let disabled = { metrics = Metrics.disabled; spans = Span.null; resources = false }
let enabled t = Metrics.enabled t.metrics
let metrics t = t.metrics
let spans t = t.spans

let shard t =
  if not (enabled t) then t
  else
    {
      metrics = Metrics.shard t.metrics;
      spans = Span.shard t.spans;
      resources = t.resources;
    }

let absorb t child =
  if child != t then begin
    Metrics.absorb t.metrics child.metrics;
    Span.absorb t.spans child.spans
  end

(* Resource gauges are sampled only on request ([resources = true]):
   their values depend on GC timing and domain layout, so they are not
   deterministic across job counts — enabling them would break the
   byte-identical [--jobs] diff over a sweep's metrics summary. Gauges
   merge by max, so the folded value is the peak over all shards. *)
let sample_resources t =
  if t.resources && Metrics.enabled t.metrics then begin
    Metrics.set_max
      (Metrics.gauge t.metrics "obs.heap_words")
      (Resource.heap_words ());
    match Resource.rss_bytes () with
    | Some b -> Metrics.set_max (Metrics.gauge t.metrics "obs.rss_bytes") b
    | None -> ()
  end

let with_span t name f =
  if not t.resources then Span.with_span t.spans name f
  else begin
    let r = Span.with_span t.spans name f in
    sample_resources t;
    r
  end

let summary t =
  if not (enabled t) then ""
  else Metrics.summary t.metrics ^ Span.summary t.spans

let write_trace ?process_name t path =
  Trace_event.write ~metrics:t.metrics ?process_name path t.spans

let record_chunk_stats t sched =
  if enabled t then
    Metrics.add
      (Metrics.counter t.metrics "stream.refills")
      (Doda_dynamic.Schedule.chunk_stats sched).refills

(* Engine runs on contact sequences bounded well under 2^26 steps in
   every experiment; the power-of-two buckets keep the duration
   histogram mergeable across shards by construction. *)
let duration_bounds = Metrics.pow2_bounds ~upto:26

let engine_observers t =
  if not (enabled t) then []
  else begin
    let steps = Metrics.counter t.metrics "engine.steps" in
    let transmissions = Metrics.counter t.metrics "engine.transmissions" in
    let runs = Metrics.counter t.metrics "engine.runs" in
    let aggregated = Metrics.counter t.metrics "engine.stop.aggregated" in
    let exhausted = Metrics.counter t.metrics "engine.stop.exhausted" in
    let limited = Metrics.counter t.metrics "engine.stop.step_limit" in
    let durations =
      Metrics.histogram ~bounds:duration_bounds t.metrics "engine.duration"
    in
    [
      Engine.observer
        ~on_step:(fun ~time:_ _ -> Metrics.incr steps)
        ~on_transmit:(fun ~time:_ ~sender:_ ~receiver:_ ->
          Metrics.incr transmissions)
        ~on_finish:(fun (r : Engine.result) ->
          Metrics.incr runs;
          (match r.Engine.stop with
          | Engine.All_aggregated -> Metrics.incr aggregated
          | Engine.Schedule_exhausted -> Metrics.incr exhausted
          | Engine.Step_limit -> Metrics.incr limited);
          match r.Engine.duration with
          | Some d -> Metrics.observe durations d
          | None -> ())
        ();
    ]
  end
