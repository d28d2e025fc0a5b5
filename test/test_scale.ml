(* The million-node run-core pieces, cross-checked against the
   materialised baselines they replace: chunked streaming schedules
   must be run-identical to [of_fun]/[of_sequence] ones, the sparse
   brute-force backing must agree with the dense bitvector, checkpoint
   resume must reproduce an uninterrupted sweep bit-identically, and
   the packed-encoding node-count guard and resource gauges must hold
   their contracts. *)

module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Generators = Doda_dynamic.Generators
module Trace = Doda_dynamic.Trace
module Engine = Doda_core.Engine
module Batch_engine = Doda_core.Batch_engine
module Run_log = Doda_core.Run_log
module Algorithms = Doda_core.Algorithms
module Brute_force = Doda_core.Brute_force
module Coin_algorithms = Doda_core.Coin_algorithms
module Experiment = Doda_sim.Experiment
module Checkpoint = Doda_sim.Checkpoint
module Pool = Doda_sim.Pool
module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics
module Resource = Doda_obs.Resource
module Prng = Doda_prng.Prng

let same_result (a : Engine.result) (b : Engine.result) =
  a.stop = b.stop && a.duration = b.duration && a.steps = b.steps
  && a.transmission_count = b.transmission_count
  && a.holders = b.holders
  && Run_log.to_list a.log = Run_log.to_list b.log

let instance_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun n block seed -> (n, block, seed))
        (int_range 3 12) (int_range 1 9) (int_range 0 1_000_000))
  in
  QCheck.make
    ~print:(fun (n, block, seed) ->
      Printf.sprintf "(n=%d, block=%d, seed=%d)" n block seed)
    gen

(* Chunked vs materialised, unbounded generators: the same draw stream
   behind [of_fun] and [of_fun_chunked] (tiny blocks, to cross refill
   boundaries often) must produce identical runs — stop reason,
   duration, steps, log, holders. *)
let prop_chunked_matches_of_fun =
  QCheck.Test.make ~count:100
    ~name:"chunked schedule = of_fun schedule (gathering, waiting)"
    instance_arb
    (fun (n, block, seed) ->
      let max_steps = (40 * n * n) + 100 in
      List.for_all
        (fun algo ->
          let lazy_sched =
            Schedule.of_fun ~n ~sink:0
              (Generators.uniform (Prng.create seed) ~n)
          in
          let chunked =
            Schedule.of_fun_chunked ~block ~n ~sink:0
              (Generators.uniform (Prng.create seed) ~n)
          in
          let a = Engine.run ~record:`All ~max_steps algo lazy_sched in
          let b = Engine.run ~record:`All ~max_steps algo chunked in
          same_result a b)
        [ Algorithms.gathering; Algorithms.waiting ])

(* Finite chunked ([?length], the [Trace.stream] shape) vs the same
   interactions as an eager [of_sequence]: identical runs including
   the exhaustion stop. *)
let prop_finite_chunked_matches_sequence =
  QCheck.Test.make ~count:100
    ~name:"finite chunked schedule = of_sequence schedule"
    instance_arb
    (fun (n, block, seed) ->
      let len = 3 * n in
      let s = Generators.uniform_sequence (Prng.create seed) ~n ~length:len in
      let eager = Schedule.of_sequence ~n ~sink:0 s in
      let chunked =
        Schedule.of_fun_chunked ~block ~length:len ~n ~sink:0
          (fun t -> Sequence.get s t)
      in
      let a = Engine.run ~record:`All Algorithms.waiting eager in
      let b = Engine.run ~record:`All Algorithms.waiting chunked in
      same_result a b)

(* The batch engine reads every schedule form through the scalar
   engine's [Schedule.cursor]: lockstep replications over a chunked
   schedule equal the scalar runs. *)
let prop_batch_on_chunked =
  QCheck.Test.make ~count:60
    ~name:"batch run_reps on chunked schedule = scalar Engine.run"
    instance_arb
    (fun (n, block, seed) ->
      let max_steps = (40 * n * n) + 100 in
      let chunked () =
        Schedule.of_fun_chunked ~block ~n ~sink:0
          (Generators.uniform (Prng.create seed) ~n)
      in
      let scalar = Engine.run ~max_steps Algorithms.gathering (chunked ()) in
      let batch =
        Batch_engine.run_reps ~max_steps Algorithms.gathering (chunked ()) 5
      in
      Array.for_all (fun b -> same_result scalar b) batch)

(* The run-cores' one read path: reading t = 0 .. len-1 through
   [Schedule.advance] and the cursor's view equals [get_exn] on every
   schedule form, a generator materialises exactly what was read, and
   the view refuses a negative time, a time past the end of a finite
   schedule and a chunked rewind. *)
let prop_cursor_reads =
  QCheck.Test.make ~count:100 ~name:"cursor view = get_exn on every form"
    instance_arb
    (fun (n, block, seed) ->
      let len = 5 * n in
      let s = Generators.uniform_sequence (Prng.create seed) ~n ~length:len in
      let gen t = Sequence.get s t in
      let chunked () = Schedule.of_fun_chunked ~block ~length:len ~n ~sink:0 gen in
      let forms =
        [
          ("of_sequence", (fun () -> Schedule.of_sequence ~n ~sink:0 s));
          ("of_fun", fun () -> Schedule.of_fun ~n ~sink:0 gen);
          ("of_fun_chunked", chunked);
          ( "prefetched chunked",
            fun () ->
              let c = chunked () in
              Schedule.chunk_prefetch c ~submit:(fun f -> f ()) ~now:(fun () -> 0);
              c );
        ]
      in
      let raises f =
        match f () with () -> false | exception Invalid_argument _ -> true
      in
      List.for_all
        (fun (name, make) ->
          let sched = make () and oracle = make () in
          let cur = Schedule.cursor sched in
          for t = 0 to len - 1 do
            if t >= cur.Schedule.hi then Schedule.advance cur t;
            let i = cur.Schedule.blk.(t - cur.Schedule.base) in
            if not (Interaction.equal i (Schedule.get_exn oracle t)) then
              QCheck.Test.fail_reportf "%s: time %d differs" name t
          done;
          let finite = Schedule.length sched <> None in
          if (not finite) && Schedule.materialized sched <> len then
            QCheck.Test.fail_reportf "%s: materialised %d of %d read" name
              (Schedule.materialized sched) len;
          if not (raises (fun () -> Schedule.advance cur (-1))) then
            QCheck.Test.fail_reportf "%s: negative time accepted" name;
          if finite && not (raises (fun () -> Schedule.advance cur len)) then
            QCheck.Test.fail_reportf "%s: time past the end accepted" name;
          if Schedule.is_chunked sched && not (raises (fun () -> Schedule.advance cur 0))
          then QCheck.Test.fail_reportf "%s: rewind accepted" name;
          true)
        forms)

(* [doda run] computes its offline optimum and cost over the
   materialised prefix: a scalar run over an [of_fun] schedule
   materialises exactly the interactions it played. *)
let test_run_materializes_what_it_reads () =
  List.iter
    (fun (seed, max_steps) ->
      let n = 12 in
      let sched =
        Schedule.of_fun ~n ~sink:0 (Generators.uniform (Prng.create seed) ~n)
      in
      let r = Engine.run ~max_steps Algorithms.gathering sched in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: materialized = steps" seed)
        r.Engine.steps (Schedule.materialized sched))
    [ (1, 100_000); (2, 100_000); (3, 10) ]

(* The pipelined producer must not change a single draw: a prefetched
   chunked schedule is run-identical to a plain one, both with an
   inline submit (every fill stolen by the consumer) and through a
   real worker pool ([Pool.pipeline]). *)
let prop_prefetch_matches_plain =
  QCheck.Test.make ~count:40
    ~name:"prefetched chunked schedule = plain chunked schedule"
    instance_arb
    (fun (n, block, seed) ->
      let max_steps = (40 * n * n) + 100 in
      let chunked () =
        Schedule.of_fun_chunked ~block ~n ~sink:0
          (Generators.uniform (Prng.create seed) ~n)
      in
      let run sched = Engine.run ~record:`All ~max_steps Algorithms.gathering sched in
      let plain = run (chunked ()) in
      let inline =
        let s = chunked () in
        Schedule.chunk_prefetch s ~submit:(fun f -> f ()) ~now:(fun () -> 0);
        run s
      in
      let pooled =
        Pool.with_pool ~jobs:2 (fun pool ->
            let s = chunked () in
            Pool.pipeline pool s;
            run s)
      in
      same_result plain inline && same_result plain pooled)

(* Chunk-stream counters: refills count every installed block (and so
   are deterministic at any job count); the pipeline counters only
   ever credit a subset of them. *)
let test_chunk_stats () =
  let len = 100 and block = 8 in
  let blocks = (len + block - 1) / block in
  let mk () =
    Schedule.of_fun_chunked ~block ~length:len ~n:4 ~sink:0 (fun t ->
        Interaction.make 0 ((t mod 3) + 1))
  in
  let drain s =
    for t = 0 to len - 1 do
      ignore (Schedule.get_exn s t)
    done;
    Schedule.chunk_stats s
  in
  let plain = drain (mk ()) in
  Alcotest.(check int) "refills = ceil(len/block)" blocks plain.Schedule.refills;
  Alcotest.(check int) "no producer, nothing prefetched" 0
    plain.Schedule.prefetched;
  let pf = mk () in
  Schedule.chunk_prefetch pf ~submit:(fun f -> f ()) ~now:(fun () -> 0);
  Schedule.chunk_prefetch pf ~submit:(fun f -> f ()) ~now:(fun () -> 0);
  (* idempotent: the second call must not add a second producer *)
  let piped = drain pf in
  Alcotest.(check int) "refills unchanged under prefetch" blocks
    piped.Schedule.refills;
  Alcotest.(check bool) "prefetched in (0, refills]" true
    (piped.Schedule.prefetched > 0
    && piped.Schedule.prefetched <= piped.Schedule.refills);
  let z = Schedule.chunk_stats (Schedule.of_fun ~n:4 ~sink:0 (fun _ -> Interaction.dummy)) in
  Alcotest.(check int) "non-chunked schedules report zero refills" 0
    z.Schedule.refills

(* Generator-call discipline: exactly once per index, in increasing
   order, never more than one block past the highest time read. *)
let test_chunked_gen_discipline () =
  let calls = ref [] in
  let block = 8 in
  let sched =
    Schedule.of_fun_chunked ~block ~n:4 ~sink:0 (fun t ->
        calls := t :: !calls;
        Interaction.make 0 ((t mod 3) + 1))
  in
  ignore (Schedule.get_exn sched 0);
  let highest = List.fold_left Stdlib.max (-1) !calls in
  Alcotest.(check bool) "at most one block decoded ahead" true
    (highest < block);
  ignore (Schedule.get_exn sched 20);
  let sorted = List.sort compare !calls in
  Alcotest.(check (list int)) "each index decoded exactly once, in order"
    (List.init (List.length sorted) Fun.id)
    (List.rev !calls)

let test_chunked_errors () =
  let mk () =
    Schedule.of_fun_chunked ~block:4 ~n:4 ~sink:0 (fun t ->
        Interaction.make 0 ((t mod 3) + 1))
  in
  let rewound = mk () in
  ignore (Schedule.get_exn rewound 10);
  (* The message must name the failing operation, explain forward-only,
     and point at a replayable alternative (no --stream). *)
  (match Schedule.get_exn rewound 0 with
  | exception Invalid_argument msg ->
      let has needle =
        let nl = String.length needle and ml = String.length msg in
        let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
        Alcotest.(check bool)
          (Printf.sprintf "rewind message mentions %S" needle)
          true (at 0)
      in
      has "Schedule.get_exn";
      has "forward-only";
      has "time 0 is before the current block at 8";
      has "--stream"
  | _ -> Alcotest.fail "rewind should raise Invalid_argument");
  let raises name f =
    match f (mk ()) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should raise Invalid_argument" name
  in
  raises "prefix" (fun s -> ignore (Schedule.prefix s 3));
  raises "next_meet_with_sink" (fun s ->
      ignore (Schedule.next_meet_with_sink s ~node:1 ~after:0 ~limit:10));
  raises "meets_with_sink_upto" (fun s ->
      ignore (Schedule.meets_with_sink_upto s 3));
  (* Finite horizon: reading past [length] is an ordinary end. *)
  let fin =
    Schedule.of_fun_chunked ~block:4 ~length:6 ~n:4 ~sink:0 (fun t ->
        Interaction.make 0 ((t mod 3) + 1))
  in
  Alcotest.(check (option int)) "finite length" (Some 6) (Schedule.length fin);
  Alcotest.(check bool) "get past end is None" true
    (Schedule.get fin 6 = None)

(* Satellite (a): the packed encoding bounds n; constructors must fail
   fast — before allocating per-node state — with a message naming the
   limit. *)
let test_node_count_guard () =
  let over = Interaction.max_node_id + 2 in
  let expect f =
    match f () with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          "error names the encoding limit" true
          (String.length msg > 0
          && String.sub msg 0 (Stdlib.min 11 (String.length msg))
             = "Schedule: n")
    | _ -> Alcotest.fail "oversized n should raise Invalid_argument"
  in
  expect (fun () ->
      Schedule.of_fun ~n:over ~sink:0 (fun _ -> Interaction.dummy));
  expect (fun () ->
      Schedule.of_fun_chunked ~n:over ~sink:0 (fun _ -> Interaction.dummy));
  (* The largest representable n is accepted (no arrays of that size
     are allocated up front). *)
  let s =
    Schedule.of_fun_chunked ~n:(Interaction.max_node_id + 1) ~sink:0
      (fun _ -> Interaction.dummy)
  in
  Alcotest.(check int) "max n accepted" (Interaction.max_node_id + 1)
    (Schedule.n s)

(* Sparse vs dense brute force: identical optima and reachable-state
   sets wherever the dense bitvector is defined. *)
let bf_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun n len seed -> (n, len, seed))
        (int_range 3 9) (int_range 3 40) (int_range 0 1_000_000))
  in
  QCheck.make
    ~print:(fun (n, len, seed) ->
      Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    gen

let prop_sparse_matches_dense =
  QCheck.Test.make ~count:150
    ~name:"brute force: sparse backing = dense backing"
    bf_arb
    (fun (n, len, seed) ->
      let rng = Prng.create seed in
      let s = Generators.uniform_sequence rng ~n ~length:len in
      let sink = Prng.int rng n in
      Brute_force.optimal_duration_dense ~n ~sink s ~start:0
      = Brute_force.optimal_duration_sparse ~n ~sink s ~start:0
      && Brute_force.reachable_states_dense ~n ~sink s
         = Brute_force.reachable_states_sparse ~n ~sink s)

(* ------------------------------------------------------------------ *)
(* Checkpoints.                                                       *)

let temp_path () =
  let path = Filename.temp_file "doda_ckpt" ".txt" in
  Sys.remove path;
  path

let test_checkpoint_roundtrip () =
  let path = temp_path () in
  let cp = Checkpoint.create ~path ~key:"sweep v1 test" in
  Alcotest.(check int) "fresh file is empty" 0 (Checkpoint.completed cp);
  Checkpoint.record cp 0 "d41";
  Checkpoint.record cp 2 "f";
  Checkpoint.close cp;
  let cp = Checkpoint.create ~path ~key:"sweep v1 test" in
  Alcotest.(check int) "two slots survive reopen" 2 (Checkpoint.completed cp);
  Alcotest.(check (option string)) "slot 0" (Some "d41") (Checkpoint.find cp 0);
  Alcotest.(check (option string)) "slot 1" None (Checkpoint.find cp 1);
  Alcotest.(check (option string)) "slot 2" (Some "f") (Checkpoint.find cp 2);
  (* A sub view addresses the parent's slots at an offset. *)
  let view = Checkpoint.sub cp ~base:10 in
  Checkpoint.record view 2 "d7";
  Alcotest.(check (option string)) "sub slot 2 = parent slot 12" (Some "d7")
    (Checkpoint.find cp 12);
  Checkpoint.close cp;
  Sys.remove path

let test_checkpoint_key_mismatch () =
  let path = temp_path () in
  let cp = Checkpoint.create ~path ~key:"key A" in
  Checkpoint.record cp 0 "d1";
  Checkpoint.close cp;
  let cp = Checkpoint.create ~path ~key:"key B" in
  Alcotest.(check int) "mismatched key restarts empty" 0
    (Checkpoint.completed cp);
  Checkpoint.close cp;
  Sys.remove path

let test_checkpoint_torn_line () =
  let path = temp_path () in
  let cp = Checkpoint.create ~path ~key:"torn" in
  Checkpoint.record cp 0 "d5";
  Checkpoint.close cp;
  (* Simulate a crash mid-append: a final line without its newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "1 d9";
  close_out oc;
  let cp = Checkpoint.create ~path ~key:"torn" in
  Alcotest.(check (option string)) "complete slot kept" (Some "d5")
    (Checkpoint.find cp 0);
  Alcotest.(check (option string)) "torn slot dropped" None
    (Checkpoint.find cp 1);
  (* The dropped slot can be re-recorded after the salvage. *)
  Checkpoint.record cp 1 "d9";
  Checkpoint.close cp;
  let cp = Checkpoint.create ~path ~key:"torn" in
  Alcotest.(check (option string)) "re-recorded slot" (Some "d9")
    (Checkpoint.find cp 1);
  Checkpoint.close cp;
  Sys.remove path

(* Kill-and-resume, end to end: a checkpointed sweep interrupted after
   k replications and resumed must equal — sample for sample — both
   its own uninterrupted run and the never-checkpointed baseline. *)
let test_checkpoint_resume_bit_identical () =
  let n = 10 and reps = 8 and seed = 2016 in
  let factory rng =
    Schedule.of_fun ~n ~sink:0 (Generators.uniform rng ~n)
  in
  let run ?checkpoint () =
    Experiment.run_schedule_factory ?checkpoint ~jobs:1 ~replications:reps
      ~seed ~max_steps:(40 * n * n) ~label:"resume" ~n factory
      Algorithms.gathering
  in
  let baseline = run () in
  let path = temp_path () in
  let key = "resume-test v1" in
  let cp = Checkpoint.create ~path ~key in
  let full = run ~checkpoint:cp () in
  Checkpoint.close cp;
  Alcotest.(check (array (float 0.0))) "checkpointed = baseline"
    baseline.Experiment.samples full.Experiment.samples;
  (* Interrupt: keep only the header and the first 3 recorded slots. *)
  let lines =
    let ic = open_in path in
    let rec all acc =
      match input_line ic with
      | line -> all (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    all []
  in
  let kept = List.filteri (fun i _ -> i < 4) lines in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  close_out oc;
  let cp = Checkpoint.create ~path ~key in
  Alcotest.(check int) "3 slots survive the interruption" 3
    (Checkpoint.completed cp);
  let resumed = run ~checkpoint:cp () in
  Checkpoint.close cp;
  Alcotest.(check (array (float 0.0))) "resumed = baseline"
    baseline.Experiment.samples resumed.Experiment.samples;
  Alcotest.(check int) "failures preserved" baseline.Experiment.failures
    resumed.Experiment.failures;
  Sys.remove path

(* Same kill-and-resume discipline for the streamed batched sweep:
   one shared chunked schedule, lockstep lanes, a coin algorithm so
   every lane actually consumes its own slot stream. The interrupted
   run must rebuild the identical schedule (first master split) and
   hand the surviving lanes exactly their original streams. *)
let test_batched_factory_resume_bit_identical () =
  let n = 10 and reps = 8 and seed = 2016 in
  let algo = Coin_algorithms.coin_waiting (Prng.create 77) ~p:0.4 in
  let factory rng =
    Schedule.of_fun_chunked ~block:16 ~n ~sink:0 (Generators.uniform rng ~n)
  in
  let run ?checkpoint () =
    Experiment.run_batched_factory ?checkpoint ~replications:reps ~seed
      ~max_steps:(40 * n * n) ~label:"batch-resume" ~n factory algo
  in
  let baseline = run () in
  let path = temp_path () in
  let key = "batch-resume-test v1" in
  let cp = Checkpoint.create ~path ~key in
  let full = run ~checkpoint:cp () in
  Checkpoint.close cp;
  Alcotest.(check (array (float 0.0))) "checkpointed = baseline"
    baseline.Experiment.samples full.Experiment.samples;
  (* Interrupt: keep only the header and the first 3 recorded slots. *)
  let lines =
    let ic = open_in path in
    let rec all acc =
      match input_line ic with
      | line -> all (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    all []
  in
  let kept = List.filteri (fun i _ -> i < 4) lines in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) kept;
  close_out oc;
  let cp = Checkpoint.create ~path ~key in
  Alcotest.(check int) "3 slots survive the interruption" 3
    (Checkpoint.completed cp);
  let resumed = run ~checkpoint:cp () in
  Checkpoint.close cp;
  Alcotest.(check (array (float 0.0))) "resumed = baseline"
    baseline.Experiment.samples resumed.Experiment.samples;
  Alcotest.(check int) "failures preserved" baseline.Experiment.failures
    resumed.Experiment.failures;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Satellite (b): resource gauges.                                    *)

let test_resource_probes () =
  Alcotest.(check bool) "heap_words positive" true (Resource.heap_words () > 0);
  Alcotest.(check bool) "top_heap >= heap" true
    (Resource.top_heap_words () >= Resource.heap_words ());
  if Sys.file_exists "/proc/self/status" then begin
    (match Resource.rss_bytes () with
    | Some b -> Alcotest.(check bool) "rss positive" true (b > 0)
    | None -> Alcotest.fail "rss_bytes should parse /proc/self/status");
    (* No ordering check against the current rss: the kernel commits
       the high-water mark lazily, so the two reads can race. *)
    match Resource.rss_peak_bytes () with
    | Some peak -> Alcotest.(check bool) "peak positive" true (peak > 0)
    | None -> Alcotest.fail "rss_peak_bytes should parse /proc/self/status"
  end

let gauge_value ins name =
  List.assoc_opt name (Metrics.dump (Instrument.metrics ins))

let test_instrument_resources () =
  let ins = Instrument.create ~resources:true () in
  Instrument.with_span ins "work" (fun () -> ignore (Array.make 1000 0));
  (match gauge_value ins "obs.heap_words" with
  | Some (Metrics.Gauge_v (Some v)) ->
      Alcotest.(check bool) "heap gauge sampled" true (v > 0)
  | _ -> Alcotest.fail "obs.heap_words gauge missing after span");
  (* Default instruments sample nothing: the sweep --metrics summary
     stays byte-identical across job counts. *)
  let plain = Instrument.create () in
  Instrument.with_span plain "work" Fun.id;
  Alcotest.(check bool) "no gauges without ~resources" true
    (gauge_value plain "obs.heap_words" = None);
  if Sys.file_exists "/proc/self/status" then
    match gauge_value ins "obs.rss_bytes" with
    | Some (Metrics.Gauge_v (Some v)) ->
        Alcotest.(check bool) "rss gauge sampled" true (v > 0)
    | _ -> Alcotest.fail "obs.rss_bytes gauge missing after span"

(* ------------------------------------------------------------------ *)
(* Trace streaming: the two-pass reader serves the same interactions
   as the eager loader, with the same length and max node.            *)

let test_trace_stream_matches_load () =
  let n = 7 in
  let s = Generators.uniform_sequence (Prng.create 99) ~n ~length:50 in
  let path = Filename.temp_file "doda_trace" ".txt" in
  Trace.save path s;
  let loaded = Trace.load path in
  let gen, total, max_node = Trace.stream path in
  Alcotest.(check int) "length" (Sequence.length loaded) total;
  Alcotest.(check int) "max node" (Sequence.max_node loaded) max_node;
  for t = 0 to total - 1 do
    if not (Interaction.equal (gen t) (Sequence.get loaded t)) then
      Alcotest.failf "interaction %d differs" t
  done;
  Sys.remove path

let () =
  Alcotest.run "scale"
    [
      ( "chunked",
        [
          QCheck_alcotest.to_alcotest prop_chunked_matches_of_fun;
          QCheck_alcotest.to_alcotest prop_finite_chunked_matches_sequence;
          QCheck_alcotest.to_alcotest prop_batch_on_chunked;
          QCheck_alcotest.to_alcotest prop_prefetch_matches_plain;
          QCheck_alcotest.to_alcotest prop_cursor_reads;
          Alcotest.test_case "a run materialises what it reads" `Quick
            test_run_materializes_what_it_reads;
          Alcotest.test_case "chunk stats" `Quick test_chunk_stats;
          Alcotest.test_case "generator call discipline" `Quick
            test_chunked_gen_discipline;
          Alcotest.test_case "forward-only and oracle errors" `Quick
            test_chunked_errors;
          Alcotest.test_case "node-count guard" `Quick test_node_count_guard;
        ] );
      ( "sparse",
        [ QCheck_alcotest.to_alcotest prop_sparse_matches_dense ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip and sub views" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "key mismatch restarts" `Quick
            test_checkpoint_key_mismatch;
          Alcotest.test_case "torn final line dropped" `Quick
            test_checkpoint_torn_line;
          Alcotest.test_case "kill-and-resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "batched sweep kill-and-resume bit-identical"
            `Quick test_batched_factory_resume_bit_identical;
        ] );
      ( "resources",
        [
          Alcotest.test_case "probes" `Quick test_resource_probes;
          Alcotest.test_case "instrument gauges" `Quick
            test_instrument_resources;
        ] );
      ( "trace",
        [
          Alcotest.test_case "stream matches load" `Quick
            test_trace_stream_matches_load;
        ] );
    ]
