(* The job layer shared by the CLI and doda serve: a job that cannot
   run raises Job.Rejected with its one-line message — never another
   exception — before anything runs (an upload's lines as they are
   read), and the jobs next to the rejected ones still run. Messages
   are pinned verbatim: both front ends print or send exactly these
   texts. *)

module Job = Doda_sim.Job
module Trace = Doda_dynamic.Trace
module Generators = Doda_dynamic.Generators
module Schedule = Doda_dynamic.Schedule
module Prng = Doda_prng.Prng
module Engine = Doda_core.Engine
module Experiment = Doda_sim.Experiment
module Workload = Doda_sim.Workload
module Checkpoint = Doda_sim.Checkpoint
module Pool = Doda_sim.Pool
module Scaling = Doda_sim.Scaling
module Table = Doda_sim.Table
module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics
module Span = Doda_obs.Span

let temp_path suffix =
  let path = Filename.temp_file "doda_job" suffix in
  Sys.remove path;
  path

let run ?(algo = "gathering") ?(n = 16) ?(sink = 0) ?(source = "uniform")
    ?problem ?(stream = false) ?upload () =
  { Job.algo; n; sink; seed = 1; source; max_steps = None; problem; stream;
    upload }

let sweep ?(algo = "gathering") ?(ns = [ 8 ]) ?(source = "uniform")
    ?(batch = false) ?(stream = false) () =
  { Job.algo; ns; reps = 2; seed = 1; source; max_steps = None; batch; stream;
    checkpoint = None }

let run_job r () = ignore (Job.run r)
let sweep_job s () =
  Doda_sim.Pool.with_pool ~jobs:1 (fun pool ->
      ignore (Job.sweep ~pool ~on_point:(fun ~n:_ _ -> ()) s))

(* An upload run fed from an in-memory list of trace lines. *)
let upload_job r lines () =
  let rest = ref lines in
  let next () =
    match !rest with
    | [] -> None
    | l :: tl ->
        rest := tl;
        Some l
  in
  ignore (Job.run ~lines:next r)

let test_defaults () =
  Alcotest.(check string) "algo" "gathering" Job.default_algo;
  Alcotest.(check int) "n" 32 Job.default_n;
  Alcotest.(check int) "sink" 0 Job.default_sink;
  Alcotest.(check int) "seed" 42 Job.default_seed;
  Alcotest.(check string) "source" "uniform" Job.default_source;
  Alcotest.(check string) "problem" "aggregation" Job.default_problem;
  Alcotest.(check (list int)) "ns" [ 16; 32; 64; 128 ] Job.default_ns;
  Alcotest.(check int) "reps" 10 Job.default_reps

(* [t8]: a connected 8-node trace; [d4]: a 4-node trace whose
   footprint {0,1}, {2,3} is disconnected; [bad]: a malformed line. *)
let with_traces f =
  let t8 = temp_path ".trace" and d4 = temp_path ".trace"
  and bad = temp_path ".trace" in
  Trace.save t8
    (Generators.uniform_sequence (Prng.create 3) ~n:8 ~length:200);
  Out_channel.with_open_bin d4 (fun oc ->
      output_string oc "0 0 1\n1 2 3\n2 0 1\n");
  Out_channel.with_open_bin bad (fun oc ->
      output_string oc "0 1 2\nnot a line\n");
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ t8; d4; bad ])
    (fun () -> f ~t8 ~d4 ~bad ~missing:(temp_path ".trace"))

let duel_job ?(n = 6) adversary algo () =
  ignore (Job.duel ~adversary ~n algo)

(* Every named algorithm that needs knowledge, against the two
   adversaries that give none. *)
let duel_rejections =
  List.concat_map
    (fun (algo, what) ->
      List.map
        (fun adversary ->
          ( Printf.sprintf "duel -a %s --adversary %s" algo adversary,
            duel_job adversary algo,
            Printf.sprintf "algorithm %S needs %s knowledge, which %s" algo
              what
              (if what = "underlying graph" then
                 "only the thm3 adversary can give"
               else "an adaptive adversary cannot give") ))
        [ "thm1"; "spiteful" ])
    [
      ("waiting-greedy", "meetTime");
      ("waiting-greedy:40", "meetTime");
      ("waiting-greedy-doubling", "meetTime");
      ("tree", "underlying graph");
      ("tree-kruskal", "underlying graph");
      ("full-knowledge", "full schedule");
      ("future-gossip", "own future");
    ]

let test_rejected () =
  with_traces @@ fun ~t8 ~d4 ~bad ~missing ->
  let meet = {|algorithm "waiting-greedy" needs meetTime knowledge, which a streamed schedule cannot give|} in
  let in_memory algo what =
    Printf.sprintf
      "algorithm %S needs %s knowledge, which only a trace:FILE source read \
       without stream can give"
      algo what
  in
  let no_such = missing ^ ": No such file or directory" in
  let malformed = "Trace: malformed line: not a line" in
  let upload = Some { Job.nodes = 8; length = 2 } in
  let upload_lines = [ "0 0 1"; "1 1 2" ] in
  List.iter
    (fun (label, job, expected) ->
      match job () with
      | () -> Alcotest.failf "%s: accepted" label
      | exception Job.Rejected msg ->
          Alcotest.(check string) label expected msg;
          Alcotest.(check bool)
            (label ^ ": one line") false (String.contains msg '\n')
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e))
    (duel_rejections
    @ [
      (* knowledge the schedule cannot give *)
      ( "run --stream -a waiting-greedy",
        run_job (run ~algo:"waiting-greedy" ~stream:true ()), meet );
      ( "sweep --batch --stream -a waiting-greedy",
        sweep_job (sweep ~algo:"waiting-greedy" ~ns:[ 16 ] ~batch:true ~stream:true ()),
        meet );
      ( "run --stream -a full-knowledge",
        run_job (run ~algo:"full-knowledge" ~n:8 ~stream:true ()),
        {|algorithm "full-knowledge" needs full schedule knowledge, which a streamed schedule cannot give|}
      );
      ( "run -a tree", run_job (run ~algo:"tree" ()),
        in_memory "tree" "underlying graph" );
      ( "sweep -a tree", sweep_job (sweep ~algo:"tree" ()),
        in_memory "tree" "underlying graph" );
      ( "run -a tree --stream -s trace:F",
        run_job (run ~algo:"tree" ~source:("trace:" ^ t8) ~stream:true ()),
        in_memory "tree" "underlying graph" );
      ( "run -a future-gossip -s uniform", run_job (run ~algo:"future-gossip" ()),
        in_memory "future-gossip" "own future" );
      ( "run -a future-gossip -s t-interval:16",
        run_job (run ~algo:"future-gossip" ~source:"t-interval:16" ()),
        in_memory "future-gossip" "own future" );
      ( "sweep --batch -a tree -s trace:F",
        sweep_job (sweep ~algo:"tree" ~source:("trace:" ^ t8) ~batch:true ()),
        {|algorithm "tree" has no batch rule; run it without batch|} );
      ( "upload run -a waiting-greedy",
        upload_job (run ~algo:"waiting-greedy" ?upload ()) upload_lines, meet );
      ( "upload run -a tree",
        upload_job (run ~algo:"tree" ?upload ()) upload_lines,
        in_memory "tree" "underlying graph" );
      (* uploads: the trace file's sink rule, then each line as read *)
      ( "upload run --sink 8 over 8 nodes",
        upload_job (run ~n:32 ~sink:8 ?upload ()) upload_lines,
        "sink must be < 8, the larger of n and the trace's node count, got 8" );
      ( "upload run of one node",
        upload_job (run ~upload:{ Job.nodes = 1; length = 0 } ()) [],
        "Schedule: need at least two nodes" );
      ( "upload run, malformed line",
        upload_job (run ?upload ()) [ "0 0 1"; "not a line" ], malformed );
      ( "upload run, self-interaction",
        upload_job (run ?upload ()) [ "0 0 1"; "1 2 2" ],
        "Interaction.make: self-interaction" );
      ( "upload run, node beyond the header",
        upload_job (run ?upload ()) [ "0 0 1"; "1 1 8" ],
        "upload: interaction 1 names node 8, but its header declares 8 nodes" );
      ( "upload run, short upload",
        upload_job (run ?upload ()) [ "0 0 1" ],
        "Trace.stream_lines: input ended at interaction 1 of 2" );
      (* the sink against the trace's node count *)
      ( "run -s trace:F --sink 40",
        run_job (run ~n:32 ~sink:40 ~source:("trace:" ^ t8) ()),
        "sink must be < 32, the larger of n and the trace's node count, got 40" );
      ( "run -n 4 -s trace:F --sink 8",
        run_job (run ~n:4 ~sink:8 ~source:("trace:" ^ t8) ~stream:true ()),
        "sink must be < 8, the larger of n and the trace's node count, got 8" );
      (* trace files that cannot be read *)
      ("run -s trace:MISSING", run_job (run ~source:("trace:" ^ missing) ()), no_such);
      ( "run --stream -s trace:MISSING",
        run_job (run ~source:("trace:" ^ missing) ~stream:true ()), no_such );
      ("sweep -s trace:MISSING", sweep_job (sweep ~source:("trace:" ^ missing) ()), no_such);
      ( "generate -s trace:MISSING",
        (fun () -> ignore (Job.schedule ("trace:" ^ missing) ~n:8 ~sink:0 ~seed:1)),
        no_such );
      ("run -s trace:BAD", run_job (run ~source:("trace:" ^ bad) ()), malformed);
      ("sweep -s trace:BAD", sweep_job (sweep ~source:("trace:" ^ bad) ()), malformed);
      ( "analyze / classify MISSING",
        (fun () -> ignore (Job.reading (fun () -> Trace.load missing))), no_such );
      ( "analyze / classify BAD",
        (fun () -> ignore (Job.reading (fun () -> Trace.load bad))), malformed );
      (* names *)
      ( "run -a nope", run_job (run ~algo:"nope" ()),
        Printf.sprintf "unknown algorithm \"nope\"; known: %s"
          (String.concat ", " Doda_core.Algorithms.names) );
      ( "sweep -s nope", sweep_job (sweep ~source:"nope" ()),
        "bad source: unknown workload; syntax: " ^ Doda_sim.Workload.syntax );
      ( "run --problem gossip:x", run_job (run ~problem:"gossip:x" ()),
        "bad problem: gossip needs a token count >= 1, e.g. gossip:8" );
      (* Workload.check, unchanged *)
      ("run -n 1", run_job (run ~n:1 ()), "n must be >= 2, got 1");
      (* a spanning tree needs the trace to connect every node *)
      ( "run -a tree -n 16 -s trace:F",
        run_job (run ~algo:"tree" ~n:16 ~source:("trace:" ^ t8) ()),
        {|algorithm "tree" needs a connected underlying graph, but the trace's interactions do not connect all 16 nodes|}
      );
      ( "run -a tree-kruskal -n 4 -s trace:D",
        run_job (run ~algo:"tree-kruskal" ~n:4 ~source:("trace:" ^ d4) ()),
        {|algorithm "tree-kruskal" needs a connected underlying graph, but the trace's interactions do not connect all 4 nodes|}
      );
      ( "sweep -a tree -s trace:F --ns 8,30",
        sweep_job (sweep ~algo:"tree" ~ns:[ 8; 30 ] ~source:("trace:" ^ t8) ()),
        {|algorithm "tree" needs a connected underlying graph, but the trace's interactions do not connect all 30 nodes|}
      );
      (* duels *)
      ( "duel --adversary spiteful -n 1",
        duel_job ~n:1 "spiteful" "gathering",
        {|adversary "spiteful" needs n >= 3, got 1|} );
      ( "duel --adversary nope", duel_job "nope" "gathering",
        {|unknown adversary "nope"; known: thm1, thm3, spiteful|} );
    ])

(* The neighbours of the rejected jobs run: the rules reject exactly
   what the schedule cannot support. *)
let test_accepted () =
  with_traces @@ fun ~t8 ~d4:_ ~bad:_ ~missing:_ ->
  let trace = "trace:" ^ t8 in
  List.iter
    (fun (label, job) ->
      match job () with
      | () -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e))
    [
      ("run -a waiting-greedy", run_job (run ~algo:"waiting-greedy" ()));
      ( "run -a waiting-greedy -s trace:F",
        run_job (run ~algo:"waiting-greedy" ~source:trace ()) );
      ("run -a full-knowledge -n 8", run_job (run ~algo:"full-knowledge" ~n:8 ()));
      ("run -a tree -n 8 -s trace:F", run_job (run ~algo:"tree" ~n:8 ~source:trace ()));
      ( "run -a future-gossip -s trace:F",
        run_job (run ~algo:"future-gossip" ~source:trace ()) );
      ("sweep -a tree -s trace:F", sweep_job (sweep ~algo:"tree" ~source:trace ()));
      ( "sweep --batch --stream -a gathering",
        sweep_job (sweep ~batch:true ~stream:true ()) );
      ("run -s trace:F --sink 7", run_job (run ~n:4 ~sink:7 ~source:trace ()));
      ( "run --problem gossip:2 --stream -a waiting-greedy",
        run_job (run ~algo:"waiting-greedy" ~problem:"gossip:2" ~stream:true ()) );
      ( "upload run -a gathering",
        upload_job
          (run ~upload:{ Job.nodes = 3; length = 2 } ())
          [ "0 0 1"; "1 1 2" ] );
      ("duel -a tree --adversary thm3", duel_job "thm3" "tree");
      ("duel -a gathering --adversary thm1", duel_job "thm1" "gathering");
      ("duel -a waiting --adversary spiteful -n 3", duel_job ~n:3 "spiteful" "waiting");
      ( "upload run --sink 2 over 3 nodes",
        upload_job
          (run ~n:2 ~sink:2 ~upload:{ Job.nodes = 3; length = 2 } ())
          [ "0 0 1"; "1 1 2" ] );
    ]

(* --- scalar sweeps stream knowledge-free replications ----------------- *)

let scalar ?(stream = false) ?checkpoint ~algo ~source () =
  { Job.algo; ns = [ 8; 12 ]; reps = 6; seed = 5; source; max_steps = None;
    batch = false; stream; checkpoint }

let sweep_rows ~jobs (s : Job.sweep) =
  let rows = ref [] in
  Pool.with_pool ~jobs (fun pool ->
      ignore
        (Job.sweep ~pool ~on_point:(fun ~n:_ cells -> rows := cells :: !rows) s));
  List.rev !rows

(* A sweep's table row for a measured point, as Job.sweep formats it. *)
let row_of m =
  let p = Scaling.point_of m in
  [
    string_of_int p.n; Table.cell_f p.mean; Table.cell_f p.std_error;
    Table.cell_ratio p.success;
  ]

(* The scalar sweep as it ran before replications streamed: every
   replication over an unstreamed schedule, seeded, budgeted and laid
   out in the checkpoint exactly as Job.sweep does. *)
let live_rows ?checkpoint ?should_stop (s : Job.sweep) =
  let source = Result.get_ok (Workload.parse s.source) in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  List.mapi
    (fun i n ->
      let algo = Job.algorithm ~n s.algo in
      row_of
        (Experiment.run_schedule_factory ~pool ?should_stop
           ?checkpoint:
             (Option.map (fun c -> Checkpoint.sub c ~base:(i * s.reps)) checkpoint)
           ~replications:s.reps ~seed:s.seed
           ~max_steps:((400 * n * n) + 10_000)
           ~label:algo.name ~n
           (fun rng ->
             Workload.schedule ~stream:false source ~n ~sink:0
               ~seed:(Prng.int rng 1_000_000_000))
           algo))
    s.ns

let knowledge_free =
  [ "waiting"; "gathering"; "gathering-larger-id"; "gathering-more-data";
    "gathering-hash" ]

let with_sweep_sources f =
  let trace = temp_path ".trace" in
  Trace.save trace
    (Generators.uniform_sequence (Prng.create 7) ~n:12 ~length:3000);
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      f
        [ "uniform"; "sink-biased:5"; "round-robin"; "waypoint";
          "markov:0.05:0.2"; "trace:" ^ trace ])

let rows = Alcotest.(list (list string))

(* Every knowledge-free algorithm on every source gives the table of
   the unstreamed path, at jobs 1 and 2 and with or without stream;
   waiting-greedy, which reads meet times, keeps the unstreamed form
   and its table. *)
let test_streamed_replications () =
  with_sweep_sources @@ fun sources ->
  List.iter
    (fun source ->
      List.iter
        (fun algo ->
          let label = Printf.sprintf "%s on %s" algo source in
          let want = live_rows (scalar ~algo ~source ()) in
          List.iter
            (fun (jobs, stream) ->
              Alcotest.check rows
                (Printf.sprintf "%s, jobs %d%s" label jobs
                   (if stream then ", stream" else ""))
                want
                (sweep_rows ~jobs (scalar ~stream ~algo ~source ())))
            (if List.mem algo knowledge_free then
               [ (1, false); (2, false); (2, true) ]
             else [ (1, false); (2, false) ]))
        (knowledge_free @ [ "waiting-greedy" ]))
    sources

(* A knowledge-free replication's schedule is chunked and decodes less
   than one replication block past the interactions its run read; a
   waiting-greedy replication's is not chunked. *)
let test_replication_schedule_form () =
  with_sweep_sources @@ fun sources ->
  List.iter
    (fun source_name ->
      let source = Result.get_ok (Workload.parse source_name) in
      List.iter
        (fun name ->
          let n = 12 in
          let algo = Job.algorithm ~n name in
          let label = Printf.sprintf "%s on %s" name source_name in
          let streams = List.mem name knowledge_free in
          Array.iteri
            (fun k rng ->
              let sched =
                Job.sweep_schedule ~batch:false ~stream:false source ~n algo rng
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s, replication %d: chunked" label k)
                streams (Schedule.is_chunked sched);
              let r =
                Engine.run ~record:`Count ~max_steps:((400 * n * n) + 10_000)
                  algo sched
              in
              if streams then begin
                let ahead = Schedule.materialized sched - r.steps in
                if ahead < 0 || ahead >= Experiment.replication_block then
                  Alcotest.failf
                    "%s, replication %d: decoded %d past the run's %d steps"
                    label k ahead r.steps
              end)
            (Experiment.split_seeds ~replications:4 ~seed:5))
        (knowledge_free @ [ "waiting-greedy" ]))
    sources;
  Alcotest.(check int) "block" 256 Experiment.replication_block

(* A checkpoint the unstreamed path wrote, interrupted inside the first
   point, resumes under the streamed path to the uninterrupted table:
   the key and the per-slot payloads do not depend on the form. *)
let test_live_checkpoint_resumes () =
  let path = temp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s = scalar ~checkpoint:path ~algo:"gathering" ~source:"uniform" () in
      let want = live_rows s in
      let key =
        Workload.sweep_checkpoint_key ~batch:false ~algo:s.algo
          ~source:Workload.Uniform ~ns:s.ns ~reps:s.reps ~seed:s.seed
          ~max_steps:None
      in
      let cp = Checkpoint.create ~path ~key in
      let started = ref 0 in
      let should_stop () =
        incr started;
        !started > 4
      in
      (match live_rows ~checkpoint:cp ~should_stop s with
      | _ -> Alcotest.fail "the unstreamed sweep was not interrupted"
      | exception Experiment.Interrupted -> ());
      Alcotest.(check int) "slots the unstreamed path recorded" 4
        (Checkpoint.completed cp);
      Checkpoint.close cp;
      Alcotest.check rows "resumed table" want (sweep_rows ~jobs:2 s);
      let cp = Checkpoint.create ~path ~key in
      Alcotest.(check int) "every slot recorded" 12 (Checkpoint.completed cp);
      Checkpoint.close cp)

(* --- batched points run across the pool -------------------------------- *)

let batched ?(stream = false) ?checkpoint ~algo ~source ns =
  { Job.algo; ns; reps = 5; seed = 9; source; max_steps = None; batch = true;
    stream; checkpoint }

(* The first point is the slowest, so the others finish before it. *)
let slowest_first = [ 400; 16; 24; 32; 40; 48 ]

(* The batched sweep as it ran before its points went across the pool:
   one Experiment.run_batched_factory per point, in order, on a pool
   that pipelines block decodes, seeded and budgeted as Job.sweep
   does. *)
let sequential_batched ?telemetry (s : Job.sweep) =
  let source = Result.get_ok (Workload.parse s.source) in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  List.map
    (fun n ->
      let algo = Job.algorithm ~n s.algo in
      row_of
        (Experiment.run_batched_factory ~pool ?telemetry ~replications:s.reps
           ~seed:s.seed
           ~max_steps:((400 * n * n) + 10_000)
           ~label:algo.name ~n
           (Job.sweep_schedule ~batch:true ~stream:s.stream source ~n algo)
           algo))
    s.ns

(* Job.sweep at [jobs]: its outcome, the ns of every on_point call and
   the rows, in call order. *)
let traced_sweep ?telemetry ?should_stop ~jobs (s : Job.sweep) =
  let ns = ref [] and cells = ref [] in
  let outcome =
    Pool.with_pool ~jobs (fun pool ->
        Job.sweep ~pool ?telemetry ?should_stop
          ~on_point:(fun ~n row ->
            ns := n :: !ns;
            cells := row :: !cells)
          s)
  in
  (outcome, List.rev !ns, List.rev !cells)

let counters tel = Metrics.summary (Instrument.metrics tel)

(* Gathering and waiting streamed, waiting-greedy unstreamed and a
   trace file: at jobs 1, 2 and 4 the rows and the counter block are
   the sequential path's, and on_point sees every point once, in ns
   order. *)
let test_batched_across_pool () =
  let trace = temp_path ".trace" in
  Trace.save trace
    (Generators.uniform_sequence (Prng.create 11) ~n:48 ~length:20_000);
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  List.iter
    (fun (label, s) ->
      let tel = Instrument.create () in
      let want = sequential_batched ~telemetry:tel s in
      let want_counters = counters tel in
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s, jobs %d" label jobs in
          let tel = Instrument.create () in
          let outcome, ns, got = traced_sweep ~telemetry:tel ~jobs s in
          (match outcome with
          | Job.Done _ -> ()
          | Job.Interrupted _ -> Alcotest.failf "%s: interrupted" label);
          Alcotest.(check (list int)) (label ^ ": on_point order") s.ns ns;
          Alcotest.check rows (label ^ ": rows") want got;
          Alcotest.(check string)
            (label ^ ": counters") want_counters (counters tel))
        [ 1; 2; 4 ])
    [
      ( "gathering, stream",
        batched ~stream:true ~algo:"gathering" ~source:"uniform" slowest_first
      );
      ( "waiting, stream",
        batched ~stream:true ~algo:"waiting" ~source:"uniform" slowest_first );
      ( "waiting-greedy",
        batched ~algo:"waiting-greedy" ~source:"uniform" slowest_first );
      ( "gathering on trace:F",
        batched ~algo:"gathering" ~source:("trace:" ^ trace) slowest_first );
    ]

(* At jobs 2 the first two points are claimed at once and a third claim
   comes only once one of them has finished: stopping every claim from
   the third on interrupts the sweep with whole points kept, and a
   rerun resumes to the uninterrupted table, running only the points
   the checkpoint lacks. *)
let test_batched_interrupt_resumes () =
  let path = temp_path ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s =
        batched ~stream:true ~checkpoint:path ~algo:"gathering"
          ~source:"uniform" slowest_first
      in
      let want = sequential_batched s in
      let claims = Atomic.make 0 in
      let should_stop () = Atomic.fetch_and_add claims 1 >= 2 in
      let outcome, _, early = traced_sweep ~should_stop ~jobs:2 s in
      (match outcome with
      | Job.Interrupted (Some p) ->
          Alcotest.(check string) "checkpoint path" path p
      | Job.Interrupted None -> Alcotest.fail "no checkpoint path"
      | Job.Done _ -> Alcotest.fail "the sweep was not interrupted");
      let key =
        Workload.sweep_checkpoint_key ~batch:true ~algo:s.algo
          ~source:Workload.Uniform ~ns:s.ns ~reps:s.reps ~seed:s.seed
          ~max_steps:None
      in
      let kept =
        let cp = Checkpoint.create ~path ~key in
        let c = Checkpoint.completed cp in
        Checkpoint.close cp;
        c
      in
      if kept mod s.reps <> 0 || kept = 0 || kept > 2 * s.reps then
        Alcotest.failf "kept %d slots: not one or two whole points" kept;
      Alcotest.check rows "rows before the stop"
        (List.filteri (fun i _ -> i < List.length early) want)
        early;
      let tel = Instrument.create () in
      let outcome, ns, got = traced_sweep ~telemetry:tel ~jobs:2 s in
      (match outcome with
      | Job.Done _ -> ()
      | Job.Interrupted _ -> Alcotest.fail "the rerun was interrupted");
      Alcotest.(check (list int)) "rerun: on_point order" s.ns ns;
      Alcotest.check rows "resumed table" want got;
      Alcotest.(check int) "points the rerun ran"
        (List.length s.ns - (kept / s.reps))
        (Metrics.counter_value
           (Metrics.counter (Instrument.metrics tel) "batch.runs")))

(* A traced sweep's ring holds every span it records: 3 points of 800
   replications record 4800, more than the default ring of 4096. *)
let test_sweep_span_ring () =
  let s =
    { (scalar ~algo:"gathering" ~source:"uniform" ()) with
      ns = [ 8; 12; 16 ]; reps = 800 }
  in
  let tel = Instrument.create ~span_capacity:(Job.sweep_span_capacity s) () in
  ignore (traced_sweep ~telemetry:tel ~jobs:2 s);
  let spans = Instrument.spans tel in
  let count name =
    List.length (List.filter (fun e -> e.Span.name = name) (Span.events spans))
  in
  Alcotest.(check int) "dropped" 0 (Span.dropped spans);
  Alcotest.(check int) "replicate spans" 2400 (count "replicate");
  Alcotest.(check int) "schedule/build spans" 2400 (count "schedule/build");
  Alcotest.(check int) "batched: two per point" (6 + 16)
    (Job.sweep_span_capacity { s with batch = true });
  Alcotest.(check int) "capped" (1 lsl 16)
    (Job.sweep_span_capacity { s with reps = 1 lsl 20 });
  Alcotest.(check int) "no replications" 16
    (Job.sweep_span_capacity { s with reps = -3 })

let () =
  Alcotest.run "job"
    [
      ( "job",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "rejected jobs fail with one line" `Quick
            test_rejected;
          Alcotest.test_case "neighbouring jobs run" `Quick test_accepted;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "scalar sweep tables = unstreamed path" `Quick
            test_streamed_replications;
          Alcotest.test_case "replication schedule form" `Quick
            test_replication_schedule_form;
          Alcotest.test_case "unstreamed checkpoint resumes streamed" `Quick
            test_live_checkpoint_resumes;
          Alcotest.test_case "traced sweep keeps every span" `Quick
            test_sweep_span_ring;
        ] );
      ( "batched",
        [
          Alcotest.test_case "points across the pool = sequential" `Quick
            test_batched_across_pool;
          Alcotest.test_case "interrupt keeps whole points, resumes" `Quick
            test_batched_interrupt_resumes;
        ] );
    ]
