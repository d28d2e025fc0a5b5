module Prng = Doda_prng.Prng
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Trace = Doda_dynamic.Trace
module Interaction = Doda_dynamic.Interaction
module Tvg_class = Doda_dynamic.Tvg_class
module Algorithm = Doda_core.Algorithm
module Algorithms = Doda_core.Algorithms
module Knowledge = Doda_core.Knowledge
module Engine = Doda_core.Engine
module Gossip = Doda_core.Gossip
module Problem = Doda_core.Problem
module Instrument = Doda_obs.Instrument
module Counterexamples = Doda_adversary.Counterexamples

exception Rejected of string

let reject fmt = Printf.ksprintf (fun msg -> raise (Rejected msg)) fmt

let default_algo = "gathering"
let default_n = 32
let default_sink = 0
let default_seed = 42
let default_source = "uniform"
let default_problem = "aggregation"
let default_ns = [ 16; 32; 64; 128 ]
let default_reps = 10

type upload = { nodes : int; length : int }

type run = {
  algo : string;
  n : int;
  sink : int;
  seed : int;
  source : string;
  max_steps : int option;
  problem : string option;
  stream : bool;
  upload : upload option;
}

type sweep = {
  algo : string;
  ns : int list;
  reps : int;
  seed : int;
  source : string;
  max_steps : int option;
  batch : bool;
  stream : bool;
  checkpoint : string option;
}

(* --- resolution and checks ------------------------------------------- *)

let algorithm ~n name =
  match Algorithms.find ~n name with
  | Some a -> a
  | None ->
      reject "unknown algorithm %S; known: %s" name
        (String.concat ", " Algorithms.names)

let source s =
  match Workload.parse s with Ok w -> w | Error e -> reject "bad source: %s" e

let problem ~sink p =
  match Problem.parse ~sink (Option.value p ~default:default_problem) with
  | Ok p -> p
  | Error e -> reject "bad problem: %s" e

let ok = function Ok x -> x | Error msg -> raise (Rejected msg)
let check ?reps source ~n ~sink = ok (Workload.check ?reps source ~n ~sink)

(* The knowledge an algorithm requires must be one the job's schedule
   can give (Knowledge.for_schedule): meet times and the full schedule
   are re-read, which a streamed schedule cannot do, and the underlying
   graph and a node's own future span the whole trace, which only a
   trace file held in memory provides. *)
let require ~name ~batch ~stream source (algo : Algorithm.t) =
  if batch && algo.batch = None then
    reject "algorithm %S has no batch rule; run it without batch" name;
  let in_memory = Workload.is_finite source && not stream in
  List.iter
    (fun req ->
      let what = Knowledge.requirement_name req in
      match req with
      | Knowledge.Meet_time | Full_schedule ->
          if stream then
            reject
              "algorithm %S needs %s knowledge, which a streamed schedule \
               cannot give"
              name what
      | Underlying_graph | Own_future ->
          if not in_memory then
            reject
              "algorithm %S needs %s knowledge, which only a trace:FILE \
               source read without stream can give"
              name what)
    algo.requires

(* A tree algorithm spans the underlying graph of the whole trace from
   the sink, so the trace's interactions must link every one of the
   schedule's nodes. *)
let spanning ~name (algo : Algorithm.t) sched =
  if List.mem Knowledge.Underlying_graph algo.requires then
    let sched = Lazy.force sched in
    match
      (Knowledge.for_schedule sched [ Knowledge.Underlying_graph ]).underlying
    with
    | Some g when not (Doda_graph.Traversal.connected g) ->
        reject
          "algorithm %S needs a connected underlying graph, but the trace's \
           interactions do not connect all %d nodes"
          name (Schedule.n sched)
    | Some _ | None -> ()

let reading f =
  try f () with Sys_error msg | Failure msg | Invalid_argument msg ->
    raise (Rejected msg)

(* Only a trace file is read here; a generated source that passed
   [check] builds without error. *)
let build ?telemetry ?block ?jobs ~stream source ~n ~sink ~seed =
  let build () =
    Workload.schedule ?telemetry ~stream ?block ?jobs source ~n ~sink ~seed
  in
  if Workload.is_finite source then reading build else build ()

let schedule s ~n ~sink ~seed =
  let source = source s in
  check source ~n ~sink;
  build ~stream:false source ~n ~sink ~seed

(* An upload is a trace file that arrives streamed with its node count
   in its header, so the trace file's sink rule applies before any line
   is read. A line the trace reader refuses, or one naming a node the
   header does not declare, rejects the job when the engine reaches
   it. *)
let upload_schedule (u : upload) ~n ~sink lines =
  let n = ok (Workload.trace_node_count ~n ~sink ~nodes:u.nodes) in
  let gen = Trace.stream_lines ~length:u.length lines in
  let gen t =
    match gen t with
    | i when Interaction.v i < n -> i
    | i ->
        reject
          "upload: interaction %d names node %d, but its header declares %d \
           nodes"
          t (Interaction.v i) n
    | exception (Failure msg | Invalid_argument msg) -> raise (Rejected msg)
  in
  reading (fun () -> Schedule.of_fun_chunked ~length:u.length ~n ~sink gen)

(* --- runs ------------------------------------------------------------ *)

type outcome =
  | Aggregated of Algorithm.t * Engine.result
  | Disseminated of Problem.t * Gossip.result

let run ?(telemetry = Instrument.disabled) ?record ?on_step ?lines ?jobs
    (r : run) =
  (* An upload's header gives the job its n. *)
  let n = match r.upload with Some u -> u.nodes | None -> r.n in
  let problem = problem ~sink:r.sink r.problem in
  (* Gossip has no per-algorithm strategy: both endpoints always
     exchange everything they know. *)
  let algo =
    match problem with
    | Problem.Aggregation _ -> Some (algorithm ~n r.algo)
    | Problem.Dissemination _ -> None
  in
  let source, stream =
    match r.upload with
    | None -> (source r.source, r.stream)
    | Some _ -> (Workload.Trace_file "upload", true)
  in
  check source ~n ~sink:r.sink;
  Option.iter (require ~name:r.algo ~batch:false ~stream source) algo;
  let sched =
    match (r.upload, lines) with
    | None, _ ->
        build ~telemetry ?jobs ~stream source ~n ~sink:r.sink ~seed:r.seed
    | Some u, Some lines -> upload_schedule u ~n ~sink:r.sink lines
    | Some _, None -> invalid_arg "Job.run: an upload job needs its lines"
  in
  Option.iter (fun algo -> spanning ~name:r.algo algo (lazy sched)) algo;
  let max_steps =
    match (r.max_steps, Schedule.length sched) with
    | Some m, _ -> Some m
    | None, Some _ -> None
    | None, None -> Some ((200 * n * n) + 10_000)
  in
  let stepping observer =
    match on_step with
    | None -> []
    | Some f -> [ observer (fun ~time:_ _ -> f ()) ]
  in
  let outcome =
    match algo with
    | None ->
        let observers =
          stepping (fun on_step -> Gossip.observer ~on_step ())
        in
        Disseminated
          ( problem,
            Instrument.with_span telemetry "gossip/run" (fun () ->
                Gossip.run ?max_steps ?record ~observers ~problem sched) )
    | Some algo ->
        let observers =
          Instrument.engine_observers telemetry
          @ stepping (fun on_step -> Engine.observer ~on_step ())
        in
        Aggregated
          ( algo,
            Instrument.with_span telemetry "engine/run" (fun () ->
                Engine.run ?max_steps ?record ~observers algo sched) )
  in
  (sched, outcome)

(* --- sweeps ---------------------------------------------------------- *)

let sweep_header = [ "n"; "mean"; "stderr"; "success" ]

type sweep_end = Done of (float * float) option | Interrupted of string option

(* One independent instantiation of the workload per stream handed in.
   The batched sweep builds one per point and streams under [stream]
   alone; the scalar sweep builds one per replication, which streams
   through a small block whenever its algorithm needs no knowledge
   ([stream] only rejects the algorithms that do). *)
let sweep_schedule ~batch ~stream source ~n algo rng =
  let stream, block =
    if batch then (stream, None)
    else
      (Experiment.streams_replication algo, Some Experiment.replication_block)
  in
  build ~stream ?block source ~n ~sink:0 ~seed:(Prng.int rng 1_000_000_000)

(* A batched point is one run over one schedule, so the points
   themselves go across the pool: each slot claims the next point in ns
   order and builds, decodes and steps it alone, recording into its own
   telemetry shard. Rows follow the finished prefix, so [emit] still
   sees the points in order, once each. *)
let across_pool ~pool ~telemetry ~emit run points =
  let points = Array.of_list points in
  let finished = Array.make (Array.length points) None in
  let emitted = ref 0 and lock = Mutex.create () in
  let finish i p =
    Mutex.protect lock (fun () ->
        finished.(i) <- Some p;
        while !emitted < Array.length points && finished.(!emitted) <> None do
          emit (Option.get finished.(!emitted));
          incr emitted
        done)
  in
  Array.to_list
    (Experiment.dispatch_instrumented ~pool ~telemetry
       (fun tel i ->
         let p = run tel i points.(i) in
         finish i p;
         p)
       (Array.init (Array.length points) Fun.id))

let sweep ~pool ?(telemetry = Instrument.disabled) ?should_stop ~on_point
    (s : sweep) =
  let source = source s.source in
  let points =
    List.map
      (fun n ->
        check ~reps:s.reps source ~n ~sink:0;
        let algo = algorithm ~n s.algo in
        require ~name:s.algo ~batch:s.batch ~stream:s.stream source algo;
        spanning ~name:s.algo algo
          (lazy (build ~stream:false source ~n ~sink:0 ~seed:s.seed));
        (n, algo))
      s.ns
  in
  let cp =
    Option.map
      (fun path ->
        Checkpoint.create ~path
          ~key:
            (Workload.sweep_checkpoint_key ~batch:s.batch ~algo:s.algo ~source
               ~ns:s.ns ~reps:s.reps ~seed:s.seed ~max_steps:s.max_steps))
      s.checkpoint
  in
  let point telemetry i (n, algo) =
    (* One file spans the whole sweep: point [i] owns the slot range
       [i*reps .. (i+1)*reps). *)
    let checkpoint =
      Option.map (fun c -> Checkpoint.sub c ~base:(i * s.reps)) cp
    in
    let max_steps =
      Option.value s.max_steps ~default:((400 * n * n) + 10_000)
    in
    let label = algo.Algorithm.name in
    let factory =
      sweep_schedule ~batch:s.batch ~stream:s.stream source ~n algo
    in
    Scaling.point_of
      (if s.batch then
         (* Lockstep: ONE shared schedule per point, one run over it
            standing for every replication, on the slot that claimed
            the point. *)
         Experiment.run_batched_factory ~telemetry ?checkpoint ?should_stop
           ~replications:s.reps ~seed:s.seed ~max_steps ~label ~n factory algo
       else
         Experiment.run_schedule_factory ~pool ~telemetry ?checkpoint
           ?should_stop ~replications:s.reps ~seed:s.seed ~max_steps ~label ~n
           factory algo)
  in
  let emit (p : Scaling.point) =
    on_point ~n:p.n
      [
        string_of_int p.n;
        Table.cell_f p.mean;
        Table.cell_f p.std_error;
        Table.cell_ratio p.success;
      ]
  in
  let run_points () =
    if s.batch then across_pool ~pool ~telemetry ~emit point points
    else
      List.mapi
        (fun i p ->
          let p = point telemetry i p in
          emit p;
          p)
        points
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Checkpoint.close cp)
    (fun () ->
      match run_points () with
      | [] | [ _ ] -> Done None
      | points ->
          let fit = Scaling.exponent points in
          Done (Some (fit.slope, fit.r2))
      | exception Experiment.Interrupted ->
          Interrupted (Option.map Checkpoint.path cp))

(* A traced sweep records a "replicate" and a "schedule/build" span per
   replication of a scalar sweep, and a "schedule/build" and a "batch"
   span per batched point; the slack covers a few more per sweep. *)
let max_sweep_spans = 1 lsl 16

let sweep_span_capacity (s : sweep) =
  let per_point =
    if s.batch then 2 else 2 * Int.min max_sweep_spans (Int.max 0 s.reps)
  in
  Int.min max_sweep_spans ((List.length s.ns * per_point) + 16)

(* --- duels ------------------------------------------------------------ *)

type duel = {
  adversary : Doda_adversary.Adversary.t;
  nodes : int;
  knowledge : Knowledge.t option;
  algorithm : Algorithm.t;
}

(* An adaptive adversary picks each interaction as the run goes, so it
   has no future to give meet times, the full schedule or a node's own
   future from; thm3 alone fixes its underlying graph by construction
   and hands it out. *)
let duel ~adversary ~n name =
  let nodes, make, graph =
    match adversary with
    | "thm1" -> (Counterexamples.theorem1_nodes, Counterexamples.theorem1, None)
    | "thm3" ->
        ( Counterexamples.theorem3_nodes,
          Counterexamples.theorem3,
          Some Counterexamples.theorem3_graph )
    | "spiteful" ->
        if n < 3 then reject "adversary \"spiteful\" needs n >= 3, got %d" n;
        (n, (fun () -> Doda_adversary.Spiteful.adversary ~n ~sink:0), None)
    | other -> reject "unknown adversary %S; known: thm1, thm3, spiteful" other
  in
  let algo = algorithm ~n:nodes name in
  List.iter
    (fun req ->
      let what = Knowledge.requirement_name req in
      match req with
      | Knowledge.Underlying_graph when Option.is_some graph -> ()
      | Underlying_graph ->
          reject
            "algorithm %S needs %s knowledge, which only the thm3 adversary \
             can give"
            name what
      | Meet_time | Full_schedule | Own_future ->
          reject
            "algorithm %S needs %s knowledge, which an adaptive adversary \
             cannot give"
            name what)
    algo.requires;
  {
    adversary = make ();
    nodes;
    knowledge =
      Option.map (fun g -> Knowledge.with_underlying (g ()) Knowledge.empty) graph;
    algorithm = algo;
  }

(* --- classification -------------------------------------------------- *)

let classify ?window ?bound ?(nodes = 0) seq =
  let n = max nodes (Sequence.max_node seq + 1) in
  let sum = Tvg_class.summarize ~n seq in
  let yes_no = function
    | Ok () -> "yes"
    | Error w -> Format.asprintf "no (%a)" Tvg_class.pp_witness w
  in
  let member label cls =
    Printf.sprintf "%s: %s" label (yes_no (Tvg_class.validate ~n cls seq))
  in
  let t_interval w =
    member (Printf.sprintf "t-interval(%d)" w) (Tvg_class.T_interval w)
  in
  let bounded b =
    member
      (Printf.sprintf "bounded-recurrent(%d)" b)
      (Tvg_class.Bounded_recurrent b)
  in
  [
    Printf.sprintf "nodes: %d, interactions: %d" sum.nodes sum.length;
    Printf.sprintf "footprint: %d edges, %s" sum.footprint_edges
      (if sum.footprint_connected then "connected" else "disconnected");
    "temporal: " ^ yes_no sum.temporal;
    "recurrent: " ^ yes_no sum.recurrent;
    (match sum.min_window with
    | Some w -> Printf.sprintf "smallest power-of-two t-interval window: %d" w
    | None -> "t-interval: no window up to the trace length");
    (match sum.min_bound with
    | Some b -> Printf.sprintf "smallest bounded-recurrent bound: %d" b
    | None -> "bounded-recurrent: empty trace");
  ]
  @ Option.to_list (Option.map t_interval window)
  @ Option.to_list (Option.map bounded bound)
