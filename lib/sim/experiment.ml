module Prng = Doda_prng.Prng
module Engine = Doda_core.Engine
module Instrument = Doda_obs.Instrument

type measurement = {
  label : string;
  n : int;
  samples : float array;
  failures : int;
}

exception Interrupted

(* All replication APIs, sequential and parallel, derive their
   per-replication streams here, in index order, on the calling domain.
   Parallelism therefore cannot change which stream replication [k]
   receives — the foundation of the bit-identical guarantee. *)
let split_seeds ~replications ~seed =
  let master = Prng.create seed in
  Array.init replications (fun _ -> Prng.split master)

let replicate ~replications ~seed f = Array.map f (split_seeds ~replications ~seed)

let dispatch ?pool ?jobs f seeds =
  match pool with
  | Some p -> Pool.map_array p f seeds
  | None -> (
      match jobs with
      | None | Some 1 -> Array.map f seeds
      | Some j -> Pool.with_pool ~jobs:j (fun p -> Pool.map_array p f seeds))

(* Instrumented dispatch: [f] takes the telemetry handle to record
   into. Disabled telemetry routes through plain [dispatch] with the
   shared off handle — the exact code path of uninstrumented callers.
   Enabled telemetry gives every execution slot its own shard
   (sequentially, on the calling domain) and folds the shards back in
   slot order, so aggregated counters are identical for any job
   count. *)
let dispatch_instrumented ?pool ?jobs ~telemetry f seeds =
  if not (Instrument.enabled telemetry) then dispatch ?pool ?jobs (f telemetry) seeds
  else begin
    let sharded p =
      Pool.map_array_sharded p
        ~make:(fun () -> Instrument.shard telemetry)
        ~merge:(Instrument.absorb telemetry)
        f seeds
    in
    match pool with
    | Some p -> sharded p
    | None -> (
        match jobs with
        | None | Some 1 ->
            let shard = Instrument.shard telemetry in
            let r = Array.map (f shard) seeds in
            Instrument.absorb telemetry shard;
            r
        | Some j -> Pool.with_pool ~jobs:j sharded)
  end

let replicate_par ?pool ?jobs ?(telemetry = Instrument.disabled) ~replications
    ~seed f =
  let jobs =
    match (pool, jobs) with
    | None, None -> Some (Pool.default_jobs ())
    | _ -> jobs
  in
  dispatch_instrumented ?pool ?jobs ~telemetry
    (fun tel rng -> Instrument.with_span tel "replicate" (fun () -> f rng))
    (split_seeds ~replications ~seed)

(* One batch pass under a ["batch"] span, with its engine counters
   folded into [tel]. [batch.rep_steps] counts the lane steps actually
   executed: one per decode for a [Once] rule, which runs once whatever
   the replication count. A pool pipelines the block decodes of a
   chunked schedule; the producer starts inside the span, so every
   block it decodes for the pass falls within the span. *)
let batch_pass tel ?pool ~max_steps ~rngs algo schedule count =
  Instrument.with_span tel "batch" (fun () ->
      Option.iter (fun p -> Pool.pipeline p schedule) pool;
      let stats = Doda_core.Batch_engine.stats () in
      let results =
        Doda_core.Batch_engine.run_reps ~max_steps ~record:`Count ~rngs ~stats
          algo schedule count
      in
      let m = Instrument.metrics tel in
      Doda_obs.Metrics.incr (Doda_obs.Metrics.counter m "batch.runs");
      Doda_obs.Metrics.add
        (Doda_obs.Metrics.counter m "batch.decodes")
        stats.decodes;
      Doda_obs.Metrics.add
        (Doda_obs.Metrics.counter m "batch.rep_steps")
        stats.lane_steps;
      Instrument.record_chunk_stats tel schedule;
      results)

let of_results ~label ~n results =
  let samples = ref [] in
  let failures = ref 0 in
  Array.iter
    (fun (r : Engine.result) ->
      match r.duration with
      | Some d -> samples := float_of_int (d + 1) :: !samples
      | None -> incr failures)
    results;
  { label; n; samples = Array.of_list (List.rev !samples); failures = !failures }

(* Measurement from slot-ordered duration options: same fold as
   [of_results], without requiring full engine results (checkpointed
   slots only persist the duration). *)
let of_durations ~label ~n durations =
  let samples = ref [] in
  let failures = ref 0 in
  Array.iter
    (function
      | Some d -> samples := float_of_int (d + 1) :: !samples
      | None -> incr failures)
    durations;
  { label; n; samples = Array.of_list (List.rev !samples); failures = !failures }

(* Checkpoint payloads for factory sweeps: the duration option of the
   finished run. *)
let encode_duration = function Some d -> "d" ^ string_of_int d | None -> "f"

let decode_duration payload =
  if payload = "f" then Some None
  else if String.length payload > 1 && payload.[0] = 'd' then
    match int_of_string_opt (String.sub payload 1 (String.length payload - 1)) with
    | Some d -> Some (Some d)
    | None -> None
  else None

let never_stop () = false

(* The largest array the minor heap takes: a replication's block dies
   young. *)
let replication_block = 256

let streams_replication (algo : Doda_core.Algorithm.t) = algo.requires = []

let replication_schedule algo ~n ~sink gen =
  if streams_replication algo then
    Doda_dynamic.Schedule.of_fun_chunked ~block:replication_block ~n ~sink gen
  else Doda_dynamic.Schedule.of_fun ~n ~sink gen

let run_schedule_factory ?pool ?jobs ?(telemetry = Instrument.disabled)
    ?checkpoint ?(should_stop = never_stop) ?(replications = 20) ?(seed = 42)
    ~max_steps ~label ~n factory algo =
  (* Streams are pre-split in slot order whether or not a slot is
     cached, so a resumed sweep hands every slot exactly the stream an
     uninterrupted run would have — the bit-identical resume. *)
  let seeds = split_seeds ~replications ~seed in
  let cached =
    match checkpoint with
    | None -> [||]
    | Some cp ->
        Array.init replications (fun slot ->
            match Checkpoint.find cp slot with
            | None -> None
            | Some payload -> decode_duration payload)
  in
  let durations =
    dispatch_instrumented ?pool ?jobs ~telemetry
      (fun tel slot ->
        match if cached = [||] then None else cached.(slot) with
        | Some duration -> duration
        | None ->
            (* Slot-boundary stop check: slots already running on other
               domains finish (and record to the checkpoint) normally;
               every slot claimed after the flag flips raises here
               without touching the engine, and the pool re-raises the
               lowest-index exception once the batch has drained. *)
            if should_stop () then raise Interrupted;
            let rng = seeds.(slot) in
            let observers = Instrument.engine_observers tel in
            let result =
              Instrument.with_span tel "replicate" (fun () ->
                  let sched =
                    Instrument.with_span tel "schedule/build" (fun () ->
                        factory rng)
                  in
                  Engine.run ~record:`Count ~max_steps ~observers algo sched)
            in
            (match checkpoint with
            | Some cp ->
                Checkpoint.record cp slot (encode_duration result.duration)
            | None -> ());
            result.Engine.duration)
      (Array.init replications Fun.id)
  in
  of_durations ~label ~n durations

(* Checkpointed batched sweep over ONE shared schedule: the lockstep
   dual of [run_schedule_factory], which draws a fresh schedule per
   replication. Semantically a different experiment — R lockstep lanes
   over one trace (the adversary-replay setting) versus R independent
   traces — hence a separate entry point and CLI flag rather than a
   mode of the scalar sweep.

   Seed discipline: the master's FIRST split is the schedule stream,
   the next [replications] splits are the per-slot streams (drawn only
   for a coin rule, the one kind that reads them), all drawn
   in slot order on the calling domain. Streams are independent across
   slots, so running only the uncached subset of lanes hands each lane
   exactly the stream an uninterrupted run would have — checkpointed
   resume is bit-identical. *)
let run_batched_factory ?pool ?(telemetry = Instrument.disabled) ?checkpoint
    ?(should_stop = never_stop) ?(replications = 20) ?(seed = 42) ~max_steps
    ~label ~n factory algo =
  let master = Prng.create seed in
  let sched_rng = Prng.split master in
  (* A rule the batch engine runs once draws nothing per replication:
     it needs no per-slot streams, and one result whose duration every
     pending slot takes (R results would only copy its holders R
     times). *)
  let once = Doda_core.Batch_engine.runs_once algo in
  let seeds =
    if once then [||]
    else Array.init replications (fun _ -> Prng.split master)
  in
  let durations = Array.make replications None in
  let todo = ref [] in
  for slot = replications - 1 downto 0 do
    let cached =
      match checkpoint with
      | None -> None
      | Some cp -> (
          match Checkpoint.find cp slot with
          | None -> None
          | Some payload -> decode_duration payload)
    in
    match cached with
    | Some duration -> durations.(slot) <- duration
    | None -> todo := slot :: !todo
  done;
  let todo = Array.of_list !todo in
  if Array.length todo > 0 then begin
    (* The lockstep pass is one indivisible batch, so the stop check is
       per-point: a multi-point sweep interrupted between points leaves
       whole points checkpointed and re-runs none of them. *)
    if should_stop () then raise Interrupted;
    let schedule =
      Instrument.with_span telemetry "schedule/build" (fun () ->
          factory sched_rng)
    in
    let rngs, lanes =
      if once then ([||], 1)
      else (Array.map (fun slot -> seeds.(slot)) todo, Array.length todo)
    in
    let results =
      batch_pass telemetry ?pool ~max_steps ~rngs algo schedule lanes
    in
    Array.iteri
      (fun i slot ->
        let d = results.(if once then 0 else i).Engine.duration in
        (match checkpoint with
        | Some cp -> Checkpoint.record cp slot (encode_duration d)
        | None -> ());
        durations.(slot) <- d)
      todo
  end;
  of_durations ~label ~n durations

let run_uniform ?pool ?jobs ?telemetry ?replications ?seed ?(sink = 0)
    ?max_steps ~n (algo : Doda_core.Algorithm.t) =
  let max_steps =
    match max_steps with Some m -> m | None -> (200 * n * n) + 10_000
  in
  run_schedule_factory ?pool ?jobs ?telemetry ?replications ?seed ~max_steps
    ~label:algo.name ~n
    (fun rng ->
      replication_schedule algo ~n ~sink
        (Doda_dynamic.Generators.uniform rng ~n))
    algo

let replicate_duels ?pool ?jobs ?knowledge ~replications ~seed ~max_steps ~n
    ~sink algo adversary_of =
  dispatch ?pool ?jobs
    (fun rng -> Doda_adversary.Duel.run ?knowledge ~max_steps ~n ~sink algo (adversary_of rng))
    (split_seeds ~replications ~seed)

let mean m =
  if Array.length m.samples = 0 then
    invalid_arg ("Experiment.mean: no successful runs for " ^ m.label);
  Doda_stats.Descriptive.mean m.samples

let summary m = Doda_stats.Descriptive.summarize m.samples

let success_rate m =
  let total = Array.length m.samples + m.failures in
  if total = 0 then 0.0 else float_of_int (Array.length m.samples) /. float_of_int total
