(* The OCaml half of the bench/perf benchmark; run.py is the other.

     perf.exe trace WORKLOAD [--KEY VALUE ...]   one traced in-process run
     perf.exe load [--KEY VALUE ...]             closed-loop load on doda serve
     perf.exe selftest                           tiny sizes (dune runtest)

   [trace] reproduces one CLI workload by calling the public functions
   the CLI calls, and prints exactly what the CLI prints, so run.py can
   byte-compare the two. With [--json FILE] it also replays the draw
   streams to split the run-core spans into layers, and writes the
   per-layer metrics; with [--chrome FILE] it exports the spans.

   [load] is the serve-mix client: closed-loop clients, one domain and
   one connection at a time each, zero think time. After the timed
   window every reply is checked against a direct library call.

   Layer accounting is in slot-nanoseconds. The capacity of a traced
   run is its wall time on the calling domain plus, for every pool
   section, the wall time of that section on each worker slot. Each
   span's self time (its duration minus its children's) goes to the
   layer named after the module it wraps; the root span's self time is
   harness glue and is not a layer, so [traced.layer_sum_frac] falls
   below 1 by exactly the time no layer span covers. *)

module Prng = Doda_prng.Prng
module Generators = Doda_dynamic.Generators
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Trace = Doda_dynamic.Trace
module Engine = Doda_core.Engine
module Gossip = Doda_core.Gossip
module Problem = Doda_core.Problem
module Algorithms = Doda_core.Algorithms
module Convergecast = Doda_core.Convergecast
module Cost = Doda_core.Cost
module Experiment = Doda_sim.Experiment
module Workload = Doda_sim.Workload
module Checkpoint = Doda_sim.Checkpoint
module Pool = Doda_sim.Pool
module Scaling = Doda_sim.Scaling
module Table = Doda_sim.Table
module Json = Doda_sim.Json
module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics
module Span = Doda_obs.Span
module Trace_event = Doda_obs.Trace_event
module Server = Doda_serve.Server
module Client = Doda_serve.Client
module Protocol = Doda_serve.Protocol

let now () = Int64.to_int (Monotonic_clock.now ())

let time_ns f =
  let t0 = now () in
  f ();
  now () - t0

let secs ns = float_of_int ns /. 1e9

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Arguments: a mode, an optional workload name, then --key value.     *)

let positional, options =
  let rec go pos opts = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go pos ((String.sub k 2 (String.length k - 2), v) :: opts) rest
    | k :: [] when String.length k > 2 && String.sub k 0 2 = "--" ->
        die "%s needs a value" k
    | x :: rest -> go (x :: pos) opts rest
    | [] -> (List.rev pos, opts)
  in
  go [] [] (List.tl (Array.to_list Sys.argv))

let opt k = List.assoc_opt k options
let req k = match opt k with Some v -> v | None -> die "missing --%s" k

let int_of k v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> die "--%s: not an integer: %s" k v

let int_opt k default = match opt k with None -> default | Some v -> int_of k v
let int_req k = int_of k (req k)

let int_list_req k =
  List.map (int_of k) (String.split_on_char ',' (req k))

(* ------------------------------------------------------------------ *)
(* Span trees and layer accounting                                      *)

let root_capacity = 1 lsl 16

type node = { ev : Span.event; top : bool; mutable child_ns : int }

let stop_ns n = n.ev.Span.start_ns + n.ev.Span.dur_ns
let self_ns n = n.ev.Span.dur_ns - n.child_ns

(* Parent = the span a span nests inside on the same domain. *)
let nest events =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Span.event) ->
      if not (Span.is_instant e) then
        Hashtbl.replace by_tid e.tid
          (e :: Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[]))
    events;
  Hashtbl.fold
    (fun _ evs acc ->
      let evs =
        List.sort
          (fun (a : Span.event) (b : Span.event) ->
            match compare a.start_ns b.start_ns with
            | 0 -> compare b.dur_ns a.dur_ns
            | c -> c)
          evs
      in
      let stack = ref [] in
      List.fold_left
        (fun acc (e : Span.event) ->
          let rec pop = function
            | top :: rest when stop_ns top <= e.start_ns -> pop rest
            | s -> s
          in
          stack := pop !stack;
          (match !stack with
          | parent :: _ -> parent.child_ns <- parent.child_ns + e.dur_ns
          | [] -> ());
          let nd = { ev = e; top = !stack = []; child_ns = 0 } in
          stack := nd :: !stack;
          nd :: acc)
        acc evs)
    by_tid []

(* The layer (module family) whose code a span wraps. *)
let layer_of = function
  | "schedule/build" | "schedule/prefix" -> Some "schedule"
  | "engine/run" -> Some "engine"
  | "batch" -> Some "batch"
  | "checkpoint/open" | "checkpoint/record" | "checkpoint/close" ->
      Some "checkpoint"
  | "trace/load" | "trace/scan" -> Some "trace"
  | "analysis/opt" | "analysis/cost" -> Some "analysis"
  | "pool/start" | "pool/stop" | "point" | "replicate" -> Some "pool"
  | "pool/map" -> Some "idle" (* the caller's wait for the other slots *)
  | "output" -> Some "output"
  | _ -> None

type acct = {
  busy : (string, int) Hashtbl.t;  (** layer -> slot-ns *)
  mutable capacity : int;
  counts : (string, float) Hashtbl.t;  (** per-layer metric -> value *)
}

let acct () =
  { busy = Hashtbl.create 16; capacity = 0; counts = Hashtbl.create 16 }

let busy a layer = Option.value (Hashtbl.find_opt a.busy layer) ~default:0
let add_busy a layer ns = Hashtbl.replace a.busy layer (busy a layer + ns)
let count a k v = Hashtbl.replace a.counts k v
let counti a k v = count a k (float_of_int v)

(* Move [ns] of a span layer's self time to the layer the replays
   attribute it to. Clamped at the span time available, so a replay
   that runs slower than the traced call cannot create time. *)
let reattribute a ~from ~into ns =
  let ns = max 0 (min ns (busy a from)) in
  add_busy a from (-ns);
  add_busy a into ns

(* The span tree of a traced run, every span's self time charged to its
   layer, and the root span's wall as the first slot of capacity. *)
let accounted root =
  let nodes = nest (Span.events root) in
  let a = acct () in
  let wall =
    match List.find_opt (fun n -> n.ev.Span.name = "workload") nodes with
    | Some n -> n.ev.Span.dur_ns
    | None -> 0
  in
  a.capacity <- wall;
  List.iter
    (fun n ->
      match layer_of n.ev.Span.name with
      | Some l -> add_busy a l (self_ns n)
      | None -> ())
    nodes;
  (nodes, a, wall)

(* Worker slots during the caller's [pool/map] sections: each slot's
   busy time is its top-level spans inside the section, the rest of
   the section is idle. *)
let account_map_sections a ~jobs nodes =
  let main = (Domain.self () :> int) in
  let sections =
    List.filter
      (fun n -> n.ev.Span.name = "pool/map" && n.ev.Span.tid = main)
      nodes
  in
  let slot_busy = Hashtbl.create 4 in
  Hashtbl.replace slot_busy main 0;
  List.iter
    (fun n ->
      if n.ev.Span.name = "replicate" then
        Hashtbl.replace slot_busy n.ev.Span.tid
          (n.ev.Span.dur_ns
          + Option.value (Hashtbl.find_opt slot_busy n.ev.Span.tid) ~default:0))
    nodes;
  List.iter
    (fun s ->
      let s0 = s.ev.Span.start_ns and s1 = stop_ns s in
      a.capacity <- a.capacity + ((jobs - 1) * (s1 - s0));
      let worker_busy =
        List.fold_left
          (fun acc n ->
            if n.top && n.ev.Span.tid <> main && n.ev.Span.start_ns >= s0
               && stop_ns n <= s1
            then acc + n.ev.Span.dur_ns
            else acc)
          0 nodes
      in
      add_busy a "idle" (((jobs - 1) * (s1 - s0)) - worker_busy))
    sections;
  if sections <> [] then begin
    let total = Hashtbl.fold (fun _ b acc -> acc + b) slot_busy 0 in
    let mx = Hashtbl.fold (fun _ b acc -> max acc b) slot_busy 0 in
    if total > 0 then
      count a "pool.imbalance"
        (float_of_int mx /. (float_of_int total /. float_of_int jobs))
  end

let per_s num ns = if ns <= 0 then 0.0 else num /. secs ns

(* The per-layer metrics of one traced run, named as in BENCHMARK.json. *)
let layer_metrics a =
  let cap = float_of_int (max 1 a.capacity) in
  let frac l = float_of_int (max 0 (busy a l)) /. cap in
  let c k = Option.value (Hashtbl.find_opt a.counts k) ~default:0.0 in
  let layers =
    [
      "generators"; "trace"; "schedule"; "stall"; "engine"; "batch";
      "analysis"; "pool"; "idle"; "checkpoint"; "output";
    ]
  in
  let covered = List.fold_left (fun acc l -> acc + max 0 (busy a l)) 0 layers in
  [
    ("generators.busy_frac", frac "generators");
    ("generators.draws_per_s", per_s (c "generators.draws") (busy a "generators"));
    ("trace.busy_frac", frac "trace");
    ("trace.mb_per_s", per_s (c "trace.bytes" /. 1e6) (busy a "trace"));
    ("schedule.busy_frac", frac "schedule");
    ("schedule.stall_frac", frac "stall");
    ("engine.busy_frac", frac "engine");
    ("engine.steps_per_s", per_s (c "engine.steps") (busy a "engine"));
    ("batch.busy_frac", frac "batch");
    ("batch.decodes_per_s", per_s (c "batch.decodes") (busy a "batch"));
    ("analysis.busy_frac", frac "analysis");
    ("pool.idle_frac", frac "idle");
    ("checkpoint.busy_frac", frac "checkpoint");
    ("traced.layer_sum_frac", float_of_int covered /. cap);
  ]
  @ List.filter
      (fun (k, _) -> k <> "trace.bytes")
      (List.of_seq (Hashtbl.to_seq a.counts))

let metrics_json ~wall_ns metrics =
  Json.Obj
    [
      ( "metrics",
        Json.Obj
          (("traced.wall_s", Json.Float (secs wall_ns))
          :: List.map
               (fun (k, v) -> (k, Json.Float v))
               (List.sort compare metrics)) );
    ]

(* ------------------------------------------------------------------ *)
(* Draw-stream replays: the time a layer spent inside a lazily          *)
(* materialised schedule, which no span can isolate without             *)
(* instrumenting the library. Draw streams are deterministic, so the   *)
(* same seed and count reproduce the same work.                          *)

let replay_draws ~n ~seed m =
  let g = Generators.uniform (Prng.create seed) ~n in
  time_ns (fun () ->
      for t = 0 to m - 1 do
        ignore (Sys.opaque_identity (g t))
      done)

(* Drain-only replay of a live (of_fun) schedule, read the way the
   engine reads it: one [get_exn] per step. Covers draws + schedule. *)
let replay_live ~n ~seed m =
  let s = Workload.schedule Workload.Uniform ~n ~sink:0 ~seed in
  time_ns (fun () ->
      for t = 0 to m - 1 do
        ignore (Sys.opaque_identity (Schedule.get_exn s t))
      done)

(* Drain-only replay of a chunked schedule through [chunk_view], block
   by block like the engines. Returns (ns, refills). *)
let replay_chunked s m =
  let ns =
    time_ns (fun () ->
        let t = ref 0 in
        while !t < m do
          let _, _, avail = Schedule.chunk_view s !t in
          t := !t + avail
        done)
  in
  (ns, (Schedule.chunk_stats s).Schedule.refills)

(* ------------------------------------------------------------------ *)
(* Traced workloads. Each returns the CLI's stdout and its accounting. *)

type traced = {
  output : string;
  acct : acct;
  wall_ns : int;
  root : Span.t;
}

let find_algo n =
  match Algorithms.find ~n "gathering" with
  | Some a -> a
  | None -> die "gathering is not a known algorithm"

let sweep_output points =
  let t = Table.create ~header:[ "n"; "mean"; "stderr"; "success" ] in
  List.iter
    (fun (p : Scaling.point) ->
      Table.add_row t
        [
          string_of_int p.Scaling.n;
          Table.cell_f p.Scaling.mean;
          Table.cell_f p.Scaling.std_error;
          Table.cell_ratio p.Scaling.success;
        ])
    points;
  let b = Buffer.create 1024 in
  Buffer.add_string b (Table.render t);
  if List.length points >= 2 then begin
    let fit = Scaling.exponent points in
    Buffer.add_string b
      (Printf.sprintf "log-log exponent: %.3f (r2 = %.4f)\n"
         fit.Doda_stats.Regression.slope fit.Doda_stats.Regression.r2)
  end;
  Buffer.contents b

let encode_duration = function
  | Some d -> "d" ^ string_of_int d
  | None -> "f"

(* doda sweep -a gathering -s uniform --ns NS --reps R --jobs J
   --checkpoint F: the live-schedule scalar path. Mirrors
   Experiment.run_schedule_factory, with a span around each call. *)
let sweep_scalar ~replay ~ns ~reps ~seed ~jobs ~checkpoint =
  let root = Span.create ~capacity:root_capacity () in
  let sp name f = Span.with_span root name f in
  let reps_done = ref [] in
  (* A leftover checkpoint would resume and fake a speed-up. *)
  let checkpoint = Doda_sim.Scratch.resolve checkpoint in
  let output =
    sp "workload" @@ fun () ->
    let pool = sp "pool/start" (fun () -> Pool.create ~jobs) in
    let cp =
      sp "checkpoint/open" (fun () ->
          if Sys.file_exists checkpoint then Sys.remove checkpoint;
          let key =
            Workload.sweep_checkpoint_key ~batch:false ~algo:"gathering"
              ~source:Workload.Uniform ~ns ~reps ~seed ~max_steps:None
          in
          Checkpoint.create ~path:checkpoint ~key)
    in
    let points =
      List.mapi
        (fun i n ->
          sp "point" @@ fun () ->
          let algo = find_algo n in
          let sub = Checkpoint.sub cp ~base:(i * reps) in
          let max_steps = (400 * n * n) + 10_000 in
          let seeds = Experiment.split_seeds ~replications:reps ~seed in
          let runs =
            sp "pool/map" @@ fun () ->
            Pool.map_array_sharded pool
              ~make:(fun () -> Span.shard root)
              ~merge:(Span.absorb root)
              (fun sink k ->
                Span.with_span sink "replicate" @@ fun () ->
                let draw_seed = Prng.int seeds.(k) 1_000_000_000 in
                let sched =
                  Span.with_span sink "schedule/build" (fun () ->
                      Workload.schedule Workload.Uniform ~n ~sink:0
                        ~seed:draw_seed)
                in
                let r =
                  Span.with_span sink "engine/run" (fun () ->
                      Engine.run ~record:`Count ~max_steps algo sched)
                in
                Span.with_span sink "checkpoint/record" (fun () ->
                    Checkpoint.record sub k (encode_duration r.Engine.duration));
                (r, draw_seed, Schedule.materialized sched))
              (Array.init reps Fun.id)
          in
          Array.iter (fun (r, s, m) -> reps_done := (n, r, s, m) :: !reps_done) runs;
          Scaling.point_of
            (Experiment.of_results ~label:algo.Doda_core.Algorithm.name ~n
               (Array.map (fun (r, _, _) -> r) runs)))
        ns
    in
    sp "checkpoint/close" (fun () -> Checkpoint.close cp);
    sp "pool/stop" (fun () -> Pool.shutdown pool);
    sp "output" (fun () -> sweep_output points)
  in
  Sys.remove checkpoint;
  let nodes, a, wall = accounted root in
  account_map_sections a ~jobs nodes;
  let runs = !reps_done in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 runs in
  let draws = sum (fun (_, _, _, m) -> m) in
  if replay then begin
    let gen = sum (fun (n, _, s, m) -> replay_draws ~n ~seed:s m) in
    let drain = sum (fun (n, _, s, m) -> replay_live ~n ~seed:s m) in
    reattribute a ~from:"engine" ~into:"schedule" drain;
    reattribute a ~from:"schedule" ~into:"generators" gen
  end;
  counti a "generators.draws" draws;
  counti a "schedule.materialized" draws;
  counti a "engine.steps" (sum (fun (_, r, _, _) -> r.Engine.steps));
  counti a "pool.items" (List.length runs);
  counti a "checkpoint.records" (List.length runs);
  { output; acct = a; wall_ns = wall; root }

(* doda sweep --batch --stream -a gathering -s uniform --ns NS --reps R
   --jobs J: one chunked schedule per point, all lanes bit-parallel,
   block decodes pipelined onto the pool. *)
let sweep_batch ~replay ~ns ~reps ~seed ~jobs =
  let tel = Instrument.create ~span_capacity:root_capacity () in
  let root = Instrument.spans tel in
  let sp name f = Span.with_span root name f in
  let scheds = ref [] in
  let output =
    sp "workload" @@ fun () ->
    let pool = sp "pool/start" (fun () -> Pool.create ~jobs) in
    let points =
      List.map
        (fun n ->
          sp "point" @@ fun () ->
          let algo = find_algo n in
          let factory rng =
            let draw_seed = Prng.int rng 1_000_000_000 in
            let s =
              Workload.schedule ~stream:true Workload.Uniform ~n ~sink:0
                ~seed:draw_seed
            in
            scheds := (n, draw_seed, s) :: !scheds;
            s
          in
          Scaling.point_of
            (Experiment.run_batched_factory ~pool ~telemetry:tel
               ~replications:reps ~seed ~max_steps:((400 * n * n) + 10_000)
               ~label:algo.Doda_core.Algorithm.name ~n factory algo))
        ns
    in
    sp "pool/stop" (fun () -> Pool.shutdown pool);
    sp "output" (fun () -> sweep_output points)
  in
  let nodes, a, wall = accounted root in
  let m = Instrument.metrics tel in
  let counter k = Metrics.counter_value (Metrics.counter m k) in
  let decodes = counter "batch.decodes" in
  let batch_spans =
    List.filter (fun n -> n.ev.Span.name = "batch") nodes
    |> List.sort (fun x y -> compare x.ev.Span.start_ns y.ev.Span.start_ns)
  in
  let points = List.rev !scheds in
  let draws = ref 0 and refills = ref 0 and prefetched = ref 0 in
  let stalls = ref 0 and stall_ns = ref 0 in
  List.iter2
    (fun (n, draw_seed, s) b ->
      let st = Schedule.chunk_stats s in
      let mat = Schedule.materialized s in
      draws := !draws + mat;
      refills := !refills + st.Schedule.refills;
      prefetched := !prefetched + st.Schedule.prefetched;
      stalls := !stalls + st.Schedule.stalls;
      stall_ns := !stall_ns + st.Schedule.stall_ns;
      let dur = b.ev.Span.dur_ns in
      (* The producer's slot is there for the whole lockstep pass. *)
      a.capacity <- a.capacity + ((jobs - 1) * dur);
      reattribute a ~from:"batch" ~into:"stall" st.Schedule.stall_ns;
      if replay then begin
        let gen = replay_draws ~n ~seed:draw_seed mat in
        let fresh =
          Workload.schedule ~stream:true Workload.Uniform ~n ~sink:0
            ~seed:draw_seed
        in
        let drain, blocks = replay_chunked fresh mat in
        let per_block = drain / max 1 blocks in
        let inline = (st.Schedule.refills - st.Schedule.prefetched) * per_block in
        let produced = st.Schedule.prefetched * per_block in
        (* Inline decodes ran on the consumer inside the batch span; the
           prefetched ones ran on the producer slot. *)
        reattribute a ~from:"batch" ~into:"schedule" inline;
        add_busy a "schedule" produced;
        reattribute a ~from:"schedule" ~into:"generators" gen;
        add_busy a "idle" (max 0 (((jobs - 1) * dur) - produced))
      end
      else add_busy a "idle" ((jobs - 1) * dur))
    points batch_spans;
  counti a "generators.draws" !draws;
  counti a "schedule.materialized" !draws;
  counti a "schedule.refills" !refills;
  counti a "schedule.prefetched" !prefetched;
  counti a "schedule.stalls" !stalls;
  counti a "batch.decodes" decodes;
  counti a "batch.lane_steps" (counter "batch.rep_steps");
  count a "batch.occupancy"
    (float_of_int (counter "batch.rep_steps")
    /. float_of_int (max 1 (decodes * reps)));
  counti a "pool.items" !prefetched;
  { output; acct = a; wall_ns = wall; root }

let run_output algo result =
  Format.asprintf "algorithm: %s@.%a@." algo.Doda_core.Algorithm.name
    Engine.pp_result result

(* doda run -a gathering -n N -s trace:FILE [--stream]. *)
let replay_trace ~replay ~stream ~path ~n =
  let root = Span.create ~capacity:root_capacity () in
  let sp name f = Span.with_span root name f in
  let bytes = (Unix.stat path).Unix.st_size in
  let length = ref 0 and sched_ref = ref None and steps = ref 0 in
  let output =
    sp "workload" @@ fun () ->
    let sched =
      if stream then begin
        let gen, len, max_node = sp "trace/scan" (fun () -> Trace.stream path) in
        length := len;
        sp "schedule/build" (fun () ->
            Schedule.of_fun_chunked ~length:len ~n:(max n (max_node + 1)) ~sink:0
              gen)
      end
      else begin
        let s = sp "trace/load" (fun () -> Trace.load path) in
        length := Sequence.length s;
        sp "schedule/build" (fun () ->
            Schedule.of_sequence ~n:(max n (Sequence.max_node s + 1)) ~sink:0 s)
      end
    in
    sched_ref := Some sched;
    let algo = find_algo n in
    let result = sp "engine/run" (fun () -> Engine.run algo sched) in
    steps := result.Engine.steps;
    let head = sp "output" (fun () -> run_output algo result) in
    if stream then head ^ "offline prefix analysis skipped (--stream keeps no prefix)\n"
    else begin
      let nn = Schedule.n sched in
      let prefix =
        sp "schedule/prefix" (fun () ->
            Schedule.prefix sched (Schedule.materialized sched))
      in
      let opt =
        sp "analysis/opt" (fun () -> Convergecast.opt ~n:nn ~sink:0 prefix 0)
      in
      let cost =
        sp "analysis/cost" (fun () -> Cost.of_result ~n:nn ~sink:0 prefix result)
      in
      sp "output" @@ fun () ->
      head
      ^ (match opt with
        | Some o -> Printf.sprintf "offline optimum on played prefix: %d\n" (o + 1)
        | None -> "offline optimum on played prefix: infeasible\n")
      ^ Format.asprintf "cost: %a@." Cost.pp cost
    end
  in
  let sched = Option.get !sched_ref in
  let _, a, wall = accounted root in
  let mat = Schedule.materialized sched in
  counti a "engine.steps" !steps;
  if stream then begin
    (* The engine span holds the second pass over the file: line
       parsing (trace), block decode (schedule) and the run-core. *)
    if replay then begin
      let gen, _, _ = Trace.stream path in
      let parse =
        time_ns (fun () ->
            for t = 0 to mat - 1 do
              ignore (Sys.opaque_identity (gen t))
            done)
      in
      let gen, len, max_node = Trace.stream path in
      let fresh =
        Schedule.of_fun_chunked ~length:len ~n:(max n (max_node + 1)) ~sink:0 gen
      in
      let drain, _ = replay_chunked fresh mat in
      reattribute a ~from:"engine" ~into:"schedule" drain;
      reattribute a ~from:"schedule" ~into:"trace" parse
    end;
    counti a "trace.lines" (!length + mat);
    count a "trace.bytes"
      (float_of_int bytes *. float_of_int (!length + mat)
      /. float_of_int (max 1 !length));
    counti a "schedule.refills" (Schedule.chunk_stats sched).Schedule.refills
  end
  else begin
    counti a "trace.lines" !length;
    counti a "trace.bytes" bytes
  end;
  counti a "schedule.materialized" mat;
  { output; acct = a; wall_ns = wall; root }

(* ------------------------------------------------------------------ *)
(* Serve mix                                                             *)

type kind = K_run | K_gossip | K_sweep | K_upload

(* The traffic mix, by job index: 16 in 20 are n = 32 gathering runs,
   2 are 8-token gossip runs, 1 is a small batched sweep and 1 replays
   an uploaded trace. *)
let kind_of i =
  match i mod 20 with
  | 16 | 17 -> K_gossip
  | 18 -> K_sweep
  | 19 -> K_upload
  | _ -> K_run

let kind_name = function
  | K_run -> "run"
  | K_gossip -> "gossip"
  | K_sweep -> "sweep"
  | K_upload -> "upload"

let serve_n = 32

(* Closed-loop clients, one per core of the 2-core machines the mix is
   sized for. *)
let clients = 2
let sweep_ns = [ 16; 32 ]
let sweep_reps = 63

let request ~base ~upload i =
  let seed = base + i in
  let run problem upload =
    Protocol.Run
      {
        algo = "gathering";
        n = serve_n;
        sink = 0;
        seed;
        source = "uniform";
        max_steps = None;
        problem;
        stream = false;
        upload;
      }
  in
  match kind_of i with
  | K_run -> run None None
  | K_gossip -> run (Some "gossip:8") None
  | K_upload -> run None (Some upload)
  | K_sweep ->
      Protocol.Sweep
        {
          algo = "gathering";
          ns = sweep_ns;
          reps = sweep_reps;
          seed;
          source = "uniform";
          max_steps = None;
          batch = true;
          stream = false;
          checkpoint = None;
        }

type job = {
  idx : int;
  lat_ns : int;
  done_ns : int;
  replies : Protocol.response list;  (** everything after Started *)
  accepted : int option;
  error : string option;
}

(* One job on a fresh connection, through Client.run_job. The phase
   spans switch on each response: connect -> admit -> queue (upload
   for upload jobs: run_job streams the file right after Accepted) ->
   exec -> close. *)
let run_job ~ep ~sink ~upload_file ~base i =
  let req = request ~base ~upload:(fst upload_file) i in
  let is_upload = kind_of i = K_upload in
  let t0 = now () in
  let phase = ref (Span.begin_span sink "serve/connect") in
  let switch name =
    Span.end_span sink !phase;
    phase := Span.begin_span sink name
  in
  match Client.connect ep with
  | exception e ->
      { idx = i; lat_ns = 0; done_ns = now (); replies = []; accepted = None;
        error = Some ("connect: " ^ Printexc.to_string e) }
  | conn ->
      switch "serve/admit";
      let accepted = ref None and replies = ref [] in
      let on_response = function
        | Protocol.Accepted { job; _ } ->
            accepted := Some job;
            switch (if is_upload then "serve/upload" else "serve/queue")
        | Protocol.Started _ -> switch "serve/exec"
        | r -> replies := r :: !replies
      in
      let trace_file = if is_upload then Some (snd upload_file) else None in
      let outcome =
        try Client.run_job conn ~on_response ?trace_file req
        with e -> Error (Printexc.to_string e)
      in
      Span.end_span sink !phase;
      let t1 = now () in
      Span.with_span sink "serve/close" (fun () -> Client.close conn);
      {
        idx = i;
        lat_ns = t1 - t0;
        done_ns = t1;
        replies = List.rev !replies;
        accepted = !accepted;
        error = (match outcome with Ok _ -> None | Error e -> Some e);
      }

(* Closed loop: each client takes the next job index as soon as its
   previous job finished, until [stop] says the window is over. *)
let load_window ~ep ~root ~upload_file ~base ~first ~stop =
  let next = Atomic.make first in
  let sinks = List.init clients (fun _ -> Span.shard root) in
  let doms =
    List.map
      (fun sink ->
        Domain.spawn (fun () ->
            let rec loop acc =
              let i = Atomic.fetch_and_add next 1 in
              if stop i then acc
              else loop (run_job ~ep ~sink ~upload_file ~base i :: acc)
            in
            loop []))
      sinks
  in
  let jobs = List.concat_map Domain.join doms in
  List.iter (Span.absorb root) sinks;
  List.sort (fun a b -> compare a.idx b.idx) jobs

(* --- direct-call oracle ---------------------------------------------- *)

let norm = function
  | Protocol.Run_result r -> Protocol.Run_result { r with job = 0 }
  | Protocol.Point p -> Protocol.Point { p with job = 0 }
  | Protocol.Summary s -> Protocol.Summary { s with job = 0 }
  | r -> r

(* Work done by the direct calls, per verifying slot; summed after. *)
type oracle_stats = {
  mutable engine_steps : int;
  mutable engine_ns : int;
  mutable gossip_runs : int;
  mutable gossip_steps : int;
  mutable gossip_ns : int;
  mutable batch_decodes : int;
}

let oracle_stats () =
  { engine_steps = 0; engine_ns = 0; gossip_runs = 0; gossip_steps = 0;
    gossip_ns = 0; batch_decodes = 0 }

let add_stats into s =
  into.engine_steps <- into.engine_steps + s.engine_steps;
  into.engine_ns <- into.engine_ns + s.engine_ns;
  into.gossip_runs <- into.gossip_runs + s.gossip_runs;
  into.gossip_steps <- into.gossip_steps + s.gossip_steps;
  into.gossip_ns <- into.gossip_ns + s.gossip_ns;
  into.batch_decodes <- into.batch_decodes + s.batch_decodes

let run_result_of (r : Engine.result) =
  Protocol.Run_result
    {
      job = 0;
      stop = Protocol.stop_string r.Engine.stop;
      duration = r.Engine.duration;
      steps = r.Engine.steps;
      transmissions = r.Engine.transmission_count;
      problem = None;
    }

let gossip8 =
  match Problem.parse ~sink:0 "gossip:8" with Ok p -> p | Error e -> failwith e

let timed st_ns f =
  let t0 = now () in
  let r = f () in
  st_ns (now () - t0);
  r

(* The replies a job must produce, from the library functions the
   server calls. Upload jobs all replay the same file, so their reply
   is computed once, by the caller. *)
let expected st ~base ~upload_reply i =
  let seed = base + i in
  let n = serve_n in
  let uniform () = Workload.schedule Workload.Uniform ~n ~sink:0 ~seed in
  let max_steps = (200 * n * n) + 10_000 in
  match kind_of i with
  | K_upload -> upload_reply
  | K_run ->
      let sched = uniform () in
      let r =
        timed (fun ns -> st.engine_ns <- st.engine_ns + ns) (fun () ->
            Engine.run ~record:`Count ~max_steps (find_algo n) sched)
      in
      st.engine_steps <- st.engine_steps + r.Engine.steps;
      [ run_result_of r ]
  | K_gossip ->
      let sched = uniform () in
      let r =
        timed (fun ns -> st.gossip_ns <- st.gossip_ns + ns) (fun () ->
            Gossip.run ~max_steps ~record:`Count ~problem:gossip8 sched)
      in
      st.gossip_runs <- st.gossip_runs + 1;
      st.gossip_steps <- st.gossip_steps + r.Gossip.steps;
      [
        Protocol.Run_result
          {
            job = 0;
            stop = Protocol.stop_string r.Gossip.stop;
            duration = r.Gossip.duration;
            steps = r.Gossip.steps;
            transmissions = r.Gossip.transfer_count;
            problem = Some (Problem.describe gossip8);
          };
      ]
  | K_sweep ->
      let tel = Instrument.create () in
      let points =
        List.map
          (fun n ->
            let algo = find_algo n in
            let factory rng =
              Workload.schedule Workload.Uniform ~n ~sink:0
                ~seed:(Prng.int rng 1_000_000_000)
            in
            Scaling.point_of
              (Experiment.run_batched_factory ~telemetry:tel
                 ~replications:sweep_reps ~seed
                 ~max_steps:((400 * n * n) + 10_000)
                 ~label:algo.Doda_core.Algorithm.name ~n factory algo))
          sweep_ns
      in
      st.batch_decodes <-
        st.batch_decodes
        + Metrics.counter_value
            (Metrics.counter (Instrument.metrics tel) "batch.decodes");
      let fit = Scaling.exponent points in
      List.map
        (fun (p : Scaling.point) ->
          Protocol.Point
            {
              job = 0;
              n = p.Scaling.n;
              cells =
                [
                  string_of_int p.Scaling.n;
                  Table.cell_f p.Scaling.mean;
                  Table.cell_f p.Scaling.std_error;
                  Table.cell_ratio p.Scaling.success;
                ];
            })
        points
      @ [
          Protocol.Summary
            {
              job = 0;
              exponent =
                Some (fit.Doda_stats.Regression.slope, fit.Doda_stats.Regression.r2);
            };
        ]

let succeeded replies =
  List.for_all
    (function
      | Protocol.Run_result r -> r.stop = "all-aggregated"
      | Protocol.Point p -> List.nth_opt p.cells 3 = Some "1.000"
      | Protocol.Summary _ -> true
      | _ -> false)
    replies

(* Check every job on two domains; returns the failure messages (one
   per failed job) and the direct calls' work. *)
let verify ~base ~upload_path jobs =
  let upload_reply =
    let s = Trace.load upload_path in
    (* The server sizes an upload run by the upload header's node count. *)
    let sched = Schedule.of_sequence ~n:(Sequence.max_node s + 1) ~sink:0 s in
    [ run_result_of (Engine.run ~record:`Count (find_algo serve_n) sched) ]
  in
  let st = oracle_stats () in
  let verdicts =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map_array_sharded pool ~make:oracle_stats ~merge:(add_stats st)
          (fun slot j ->
            match (j.error, j.accepted) with
            | Some e, _ -> Error e
            | None, None -> Error "not accepted"
            | None, Some id ->
                let got = List.map norm j.replies in
                if got <> expected slot ~base ~upload_reply j.idx then
                  Error (kind_name (kind_of j.idx) ^ " reply diverges from the direct call")
                else if not (succeeded got) then Error "did not aggregate"
                else Ok id)
          (Array.of_list jobs))
  in
  let ids = Hashtbl.create 1024 in
  let failures =
    List.concat
      (List.map2
         (fun j verdict ->
           let fail s = [ Printf.sprintf "job %d: %s" j.idx s ] in
           match verdict with
           | Error e -> fail e
           | Ok id when Hashtbl.mem ids id -> fail (Printf.sprintf "job id %d assigned twice" id)
           | Ok id ->
               Hashtbl.replace ids id ();
               [])
         jobs (Array.to_list verdicts))
  in
  (failures, st)

let describe_replies replies =
  String.concat " | "
    (List.map
       (function
         | Protocol.Run_result r ->
             Printf.sprintf "stop=%s duration=%s steps=%d transmissions=%d" r.stop
               (match r.duration with Some d -> string_of_int d | None -> "-")
               r.steps r.transmissions
         | Protocol.Point p -> "point " ^ String.concat " " p.cells
         | Protocol.Summary { exponent = Some (e, r2); _ } ->
             Printf.sprintf "exponent %.3f r2 %.4f" e r2
         | Protocol.Summary { exponent = None; _ } -> "summary"
         | _ -> "unexpected reply")
       replies)

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let k = Array.length sorted in
  if k = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int k)) in
    sorted.(max 0 (min (k - 1) (rank - 1)))

(* The serve-mix client. Job indices 0.. are the measured window (the
   transcript of the first mix cycle is deterministic per seed); warm-up
   jobs use indices from [warmup_base] so they never shift the window.
   Both are job counts, so the server's memory high-water mark does not
   depend on how fast the machine happened to be. *)
let warmup_base = 1_000_000_000

type load = {
  window : job list;
  warm : job list;
  t0 : int;
  t1 : int;
  root : Span.t;
}

let load_run ~ep ~count ~warmup ~base ~upload_path ~trace =
  let upload_file = (Client.upload_of_trace upload_path, upload_path) in
  let root = if trace then Span.create ~capacity:(1 lsl 18) () else Span.null in
  let warm =
    load_window ~ep ~root:Span.null ~upload_file ~base
      ~first:warmup_base ~stop:(fun i -> i >= warmup_base + warmup)
  in
  let t0 = now () in
  let window =
    load_window ~ep ~root ~upload_file ~base ~first:0
      ~stop:(fun i -> i >= count)
  in
  { window; warm; t0; t1 = now (); root }

let load_report ~base ~upload_path { window = jobs; warm; t0; t1; root } =
  let failures, st = verify ~base ~upload_path (warm @ jobs) in
  let transcript =
    List.filter (fun j -> j.idx < 20) jobs
    |> List.map (fun j ->
           Printf.sprintf "job %d %s: %s\n" j.idx (kind_name (kind_of j.idx))
             (describe_replies j.replies))
    |> String.concat ""
  in
  let lat =
    Array.of_list (List.map (fun j -> float_of_int j.lat_ns /. 1e6) jobs)
  in
  Array.sort compare lat;
  let njobs = List.length jobs in
  (* Throughput of each run of [block] consecutive completions: the
     median of these is steadier than one total over a window that a
     single stall can dent. *)
  let block = 500 in
  let done_at = Array.of_list (List.map (fun j -> j.done_ns) jobs) in
  Array.sort compare done_at;
  let rates =
    List.init
      (max 0 ((Array.length done_at - 1) / block))
      (fun b ->
        float_of_int block
        /. secs (done_at.((b + 1) * block) - done_at.(b * block)))
  in
  let mean a = if Array.length a = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let wall = t1 - t0 in
  let phase_ns = Hashtbl.create 8 in
  List.iter
    (fun (e : Span.event) ->
      Hashtbl.replace phase_ns e.name
        (e.dur_ns + Option.value (Hashtbl.find_opt phase_ns e.name) ~default:0))
    (Span.events root);
  let total_lat = List.fold_left (fun acc j -> acc + j.lat_ns) 0 jobs in
  let phase name = Option.value (Hashtbl.find_opt phase_ns ("serve/" ^ name)) ~default:0 in
  let share name = float_of_int (phase name) /. float_of_int (max 1 total_lat) in
  let in_jobs = total_lat + phase "close" in
  let layer =
    (if Span.enabled root then
       [
         ("serve.connect_frac", share "connect");
         ("serve.admit_frac", share "admit");
         ("serve.upload_frac", share "upload");
         ("serve.queue_frac", share "queue");
         ("serve.exec_frac", share "exec");
         ("traced.layer_sum_frac",
           float_of_int in_jobs /. float_of_int (max 1 (clients * wall)));
       ]
     else [])
    @ [
        ("engine.steps", float_of_int st.engine_steps);
        ("engine.steps_per_s", per_s (float_of_int st.engine_steps) st.engine_ns);
        ("gossip.runs", float_of_int st.gossip_runs);
        ("gossip.steps", float_of_int st.gossip_steps);
        ("gossip.steps_per_s", per_s (float_of_int st.gossip_steps) st.gossip_ns);
        ("batch.decodes", float_of_int st.batch_decodes);
      ]
  in
  let report =
    Json.Obj
      [
        ("jobs", Json.Int njobs);
        ("warmup_jobs", Json.Int (List.length warm));
        ("failed", Json.Int (List.length failures));
        ("errors", Json.List (List.map (fun s -> Json.String s) (List.filteri (fun i _ -> i < 5) failures)));
        ("wall_s", Json.Float (secs wall));
        ("block_jobs_per_s", Json.List (List.map (fun r -> Json.Float r) rates));
        ( "latency_ms",
          Json.Obj
            [
              ("p50", Json.Float (quantile lat 0.5));
              ("p95", Json.Float (quantile lat 0.95));
              ("p99", Json.Float (quantile lat 0.99));
              ("mean", Json.Float (mean lat));
            ] );
        ( "metrics",
          Json.Obj
            (("traced.wall_s", Json.Float (secs wall))
            :: List.map (fun (k, v) -> (k, Json.Float v)) layer) );
      ]
  in
  (transcript, report, failures)

(* ------------------------------------------------------------------ *)
(* Modes                                                                 *)

let traced_run ~replay workload =
  let seed = int_opt "seed" 20160701 in
  match workload with
  | "sweep-scalar" ->
      sweep_scalar ~replay ~ns:(int_list_req "ns") ~reps:(int_req "reps") ~seed
        ~jobs:(int_req "jobs") ~checkpoint:(req "checkpoint")
  | "sweep-batch-stream" ->
      sweep_batch ~replay ~ns:(int_list_req "ns") ~reps:(int_req "reps") ~seed
        ~jobs:(int_req "jobs")
  | "replay-load" | "replay-stream" ->
      replay_trace ~replay ~stream:(workload = "replay-stream")
        ~path:(req "trace-file") ~n:(int_req "n")
  | w -> die "unknown workload %S" w

let trace_mode workload =
  let json = opt "json" in
  let t = traced_run ~replay:(json <> None) workload in
  (* An overwritten span would silently drop time from its layer. *)
  if Span.dropped t.root > 0 then die "span ring overflowed";
  print_string t.output;
  Option.iter
    (fun path ->
      Json.write path (metrics_json ~wall_ns:t.wall_ns (layer_metrics t.acct)))
    json;
  Option.iter
    (fun path -> Trace_event.write ~process_name:("perf " ^ workload) path t.root)
    (opt "chrome")

let load_mode () =
  let base = int_req "seed" in
  let upload_path = req "upload" in
  let run =
    load_run
      ~ep:(Server.Unix_path (req "socket"))
      ~count:(int_req "count") ~warmup:(int_opt "warmup" 0) ~base
      ~upload_path ~trace:(opt "chrome" <> None)
  in
  let transcript, report, _ = load_report ~base ~upload_path run in
  print_string transcript;
  Json.write (req "json") report;
  Option.iter
    (fun path -> Trace_event.write ~process_name:"perf load" path run.root)
    (opt "chrome")

(* --- selftest: tiny sizes, checked against direct library calls ----- *)

let selftest () =
  let failures = ref 0 in
  let check name ok detail =
    Printf.printf "%-52s %s\n%!" name (if ok then "ok" else "FAIL " ^ detail);
    if not ok then incr failures
  in
  let layer_sum t =
    List.assoc "traced.layer_sum_frac" (layer_metrics t.acct)
  in
  let check_sum name t =
    let s = layer_sum t in
    check (name ^ ": layer self-times sum to the wall") (Float.abs (s -. 1.0) <= 0.1)
      (Printf.sprintf "layer_sum_frac = %.3f (capacity %d ns: %s)" s
         t.acct.capacity
         (String.concat ", "
            (List.map
               (fun (k, v) -> Printf.sprintf "%s %d" k v)
               (List.of_seq (Hashtbl.to_seq t.acct.busy)))))
  in
  let roundtrip name t =
    let j = metrics_json ~wall_ns:t.wall_ns (layer_metrics t.acct) in
    check (name ^ ": metrics JSON round-trips") (Json.parse (Json.to_string j) = Ok j) ""
  in
  let ns = [ 16; 24 ] and reps = 3 and seed = 7 in
  (* scalar sweep: traced reproduction = the entry point the CLI calls *)
  let t =
    sweep_scalar ~replay:true ~ns ~reps ~seed ~jobs:2
      ~checkpoint:"perf-selftest.ckpt"
  in
  let direct =
    Pool.with_pool ~jobs:2 (fun pool ->
        List.map
          (fun n ->
            let algo = find_algo n in
            Scaling.point_of
              (Experiment.run_schedule_factory ~pool ~replications:reps ~seed
                 ~max_steps:((400 * n * n) + 10_000)
                 ~label:algo.Doda_core.Algorithm.name ~n
                 (fun rng ->
                   Workload.schedule Workload.Uniform ~n ~sink:0
                     ~seed:(Prng.int rng 1_000_000_000))
                 algo))
          ns)
  in
  check "sweep-scalar: output = Experiment.run_schedule_factory"
    (t.output = sweep_output direct) t.output;
  check_sum "sweep-scalar" t;
  roundtrip "sweep-scalar" t;
  (* batched sweep: every lane of a deterministic algorithm equals one
     scalar Engine.run over the point's schedule stream (the master's
     first split, per Experiment.run_batched_factory) *)
  let t = sweep_batch ~replay:true ~ns ~reps ~seed ~jobs:2 in
  let scalar =
    List.map
      (fun n ->
        let sched_rng = Prng.split (Prng.create seed) in
        let s =
          Workload.schedule ~stream:true Workload.Uniform ~n ~sink:0
            ~seed:(Prng.int sched_rng 1_000_000_000)
        in
        let r =
          Engine.run ~record:`Count ~max_steps:((400 * n * n) + 10_000)
            (find_algo n) s
        in
        Scaling.point_of (Experiment.of_results ~label:"gathering" ~n (Array.make reps r)))
      ns
  in
  check "sweep-batch-stream: output = scalar Engine.run lanes"
    (t.output = sweep_output scalar) t.output;
  check_sum "sweep-batch-stream" t;
  roundtrip "sweep-batch-stream" t;
  (* replays: a 64-line trace, loaded and streamed *)
  let path = "perf-selftest-trace.txt" in
  Trace.save path (Generators.uniform_sequence (Prng.create seed) ~n:4 ~length:64);
  let tl = replay_trace ~replay:true ~stream:false ~path ~n:4 in
  let ts = replay_trace ~replay:true ~stream:true ~path ~n:4 in
  let direct =
    let s = Trace.load path in
    run_output (find_algo 4)
      (Engine.run (find_algo 4)
         (Schedule.of_sequence ~n:(max 4 (Sequence.max_node s + 1)) ~sink:0 s))
  in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  check "replay-load: output = Engine.run over Trace.load" (starts_with direct tl.output) tl.output;
  check "replay-stream: output = Engine.run over Trace.load" (starts_with direct ts.output) ts.output;
  check_sum "replay-load" tl;
  check_sum "replay-stream" ts;
  roundtrip "replay-load" tl;
  (* serve: 40 jobs against an in-process server *)
  let sock = "perf-selftest.sock" in
  let srv =
    Server.start
      { Server.listen = Server.Unix_path sock; jobs = 1; max_queue = 64;
        telemetry = Instrument.create () }
  in
  let run =
    load_run ~ep:(Server.endpoint srv) ~count:40 ~warmup:0
      ~base:seed ~upload_path:path ~trace:true
  in
  Server.initiate_drain srv;
  Server.wait srv;
  let _, report, fails = load_report ~base:seed ~upload_path:path run in
  check "serve-mix: 40 replies = direct calls"
    (List.length run.window = 40 && fails = [])
    (String.concat "; " fails);
  check "serve-mix: report JSON round-trips"
    (Json.parse (Json.to_string report) = Ok report) "";
  Sys.remove path;
  if !failures > 0 then exit 1

let () =
  match positional with
  | [ "trace"; workload ] -> trace_mode workload
  | [ "load" ] -> load_mode ()
  | [ "selftest" ] -> selftest ()
  | _ ->
      prerr_endline
        "usage: perf.exe trace WORKLOAD [--KEY VALUE ...] | load [--KEY VALUE \
         ...] | selftest";
      exit 2
