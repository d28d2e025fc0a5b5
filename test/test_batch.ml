(* Batch engine differentials: [run_reps] must be result-identical —
   stop reason, duration, steps, transmission log, holder set, and for
   coin algorithms the PRNG draw sequence — to running the scalar
   [Engine.run] once per replication. Also covers the remainder batches
   (R not a multiple of the word width), live-mask early termination of
   the coin lanes, the single execution behind a deterministic rule's
   replications, and the lazy meet oracle those runs read. *)

module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Engine = Doda_core.Engine
module Batch_engine = Doda_core.Batch_engine
module Run_log = Doda_core.Run_log
module Algorithms = Doda_core.Algorithms
module Gathering_variants = Doda_core.Gathering_variants
module Coin_algorithms = Doda_core.Coin_algorithms
module Waiting_greedy = Doda_core.Waiting_greedy
module Meet_time_policies = Doda_core.Meet_time_policies
module Theory = Doda_core.Theory
module Prng = Doda_prng.Prng

let same_result (a : Engine.result) (b : Engine.result) =
  a.stop = b.stop && a.duration = b.duration && a.steps = b.steps
  && a.transmission_count = b.transmission_count
  && a.holders = b.holders
  && Run_log.to_list a.log = Run_log.to_list b.log

let finite_of (n, len, seed) =
  let rng = Prng.create seed in
  let s = Generators.uniform_sequence rng ~n ~length:len in
  let sink = Prng.int rng n in
  Schedule.of_sequence ~n ~sink s

let instance_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun n len seed -> (n, len, seed))
        (int_range 3 12) (int_range 5 500) (int_range 0 1_000_000))
  in
  QCheck.make
    ~print:(fun (n, len, seed) ->
      Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    gen

(* Deterministic batch-capable algorithms: every replication of a
   batch must equal the scalar run. *)
let deterministic_algos n =
  [
    Algorithms.waiting;
    Algorithms.gathering;
    Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n);
    Waiting_greedy.doubling ~tau0:4 ();
    Meet_time_policies.pure_greedy ~horizon:(20 * n);
    Meet_time_policies.sliding_window ~theta:(2 * n);
  ]
  @ Gathering_variants.all

let prop_run_reps_matches_scalar =
  QCheck.Test.make ~count:60
    ~name:"batch: run_reps = scalar Engine.run (deterministic algos)"
    instance_arb
    (fun ((n, _, _) as inst) ->
      let sched = finite_of inst in
      let r = 5 in
      List.for_all
        (fun algo ->
          let scalar = Engine.run algo sched in
          let batch = Batch_engine.run_reps algo sched r in
          Array.length batch = r
          && Array.for_all (fun b -> same_result scalar b) batch)
        (deterministic_algos n))

(* Remainder handling: batch sizes around the 63-bit word width (and
   the issue's nominal 1/63/64/65/130) all agree with scalar runs. *)
let test_remainder_widths () =
  let sched = finite_of (9, 300, 42) in
  let algo = Algorithms.waiting_greedy ~tau:(Theory.recommended_tau 9) in
  let scalar = Engine.run algo sched in
  List.iter
    (fun r ->
      let batch = Batch_engine.run_reps algo sched r in
      Alcotest.(check int) (Printf.sprintf "R=%d count" r) r (Array.length batch);
      Array.iteri
        (fun k b ->
          Alcotest.(check bool)
            (Printf.sprintf "R=%d rep %d identical" r k)
            true (same_result scalar b))
        batch)
    [ 1; 62; 63; 64; 65; 130 ]

(* Coin algorithms: scalar replication [i] splits the algorithm's
   master stream on its [make]; handing the batch [Prng.split_n] of an
   identically-seeded master must reproduce every draw. *)
let prop_coin_reps_match_scalar =
  QCheck.Test.make ~count:40
    ~name:"batch: coin run_reps reproduces scalar streams" instance_arb
    (fun inst ->
      let sched = finite_of inst in
      let r = 70 in
      List.for_all
        (fun (mk, p) ->
          let scalar_algo = mk (Prng.create 1234) ~p in
          let batch_algo = mk (Prng.create 1234) ~p in
          let scalars = Array.init r (fun _ -> Engine.run scalar_algo sched) in
          (* [mk] captured the batch master but the batch path never
             calls [make]; split it exactly as scalar runs would. *)
          let rngs = Prng.split_n (Prng.create 1234) r in
          let batch = Batch_engine.run_reps ~rngs batch_algo sched r in
          ignore batch_algo;
          Array.for_all2 same_result scalars batch)
        [
          (Coin_algorithms.coin_waiting, 0.4);
          (Coin_algorithms.coin_gathering, 0.25);
        ])

(* The lazy meet oracle: a meet-time rival over a generator schedule,
   whose sink meetings are indexed only as far as its probes need, runs
   exactly as over the same interactions as a finite sequence whose
   index is built in full before the run. The sequence reaches past
   every limit a rival probes, so no answer can differ for want of
   interactions. *)
let meet_time_rivals n =
  [
    Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n);
    Waiting_greedy.doubling ();
    Meet_time_policies.pure_greedy ~horizon:(10 * n * n);
    Meet_time_policies.sliding_window ~theta:n;
  ]

let prop_lazy_oracle_matches_indexed =
  QCheck.Test.make ~count:25 ~name:"meet-time rivals: of_fun run = frozen run"
    instance_arb
    (fun (n, len, seed) ->
      let rng = Prng.create seed in
      let s = Generators.uniform_sequence rng ~n ~length:(Stdlib.max 2 len) in
      let sink = Prng.int rng n in
      let gen t = Doda_dynamic.Sequence.get s (t mod Doda_dynamic.Sequence.length s) in
      let max_steps = 4 * len in
      let horizon =
        (2 * max_steps) + (10 * n * n) + Theory.recommended_tau n + 64
      in
      let indexed =
        Schedule.of_sequence ~n ~sink
          (Doda_dynamic.Sequence.of_array (Array.init horizon gen))
      in
      ignore (Schedule.meets_with_sink_upto indexed horizon);
      List.for_all
        (fun algo ->
          same_result
            (Engine.run ~max_steps algo indexed)
            (Engine.run ~max_steps algo (Schedule.of_fun ~n ~sink gen)))
        (meet_time_rivals n))

(* run_reps over a generator schedule exercises the Step_limit stop
   reason. *)
let prop_run_reps_generator =
  QCheck.Test.make ~count:25
    ~name:"batch: run_reps on generator schedule = scalar run" instance_arb
    (fun (n, len, seed) ->
      let rng = Prng.create seed in
      let s = Generators.uniform_sequence rng ~n ~length:(Stdlib.max 2 len) in
      let sink = Prng.int rng n in
      let gen t = Doda_dynamic.Sequence.get s (t mod Doda_dynamic.Sequence.length s) in
      let max_steps = 2 * len in
      List.for_all
        (fun algo ->
          let scalar =
            Engine.run ~max_steps algo (Schedule.of_fun ~n ~sink gen)
          in
          let batch =
            Batch_engine.run_reps ~max_steps algo
              (Schedule.of_fun ~n ~sink gen)
              3
          in
          Array.for_all (fun b -> same_result scalar b) batch)
        [
          Algorithms.waiting;
          Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n);
        ])

(* ------------------------------------------------------------------ *)
(* Streamed (chunked) batch: one chunk decode drives all lanes. The
   streamed pass must be bit-identical to the finite pass and to
   scalar runs — across widths around the word boundary and with
   blocks far smaller than the schedule, so the ring recycles many
   times mid-run. *)

let sequence_of (n, len, seed) =
  let rng = Prng.create seed in
  let s = Generators.uniform_sequence rng ~n ~length:len in
  let sink = Prng.int rng n in
  (s, sink)

let chunked_of ~block (n, len, seed) =
  let s, sink = sequence_of (n, len, seed) in
  Schedule.of_fun_chunked ~block ~length:(Doda_dynamic.Sequence.length s) ~n
    ~sink
    (fun t -> Doda_dynamic.Sequence.get s t)

let widths = [ 1; 62; 63; 64; 65; 130 ]

let prop_streamed_reps_match_finite =
  QCheck.Test.make ~count:25
    ~name:"batch: streamed run_reps = frozen run_reps = scalar (deterministic)"
    instance_arb
    (fun ((n, _, seed) as inst) ->
      let finite = finite_of inst in
      let block = 1 + (seed mod 7) in
      List.for_all
        (fun algo ->
          let scalar = Engine.run algo finite in
          List.for_all
            (fun r ->
              let fin = Batch_engine.run_reps algo finite r in
              let stream =
                Batch_engine.run_reps algo (chunked_of ~block inst) r
              in
              Array.length stream = r
              && Array.for_all2 same_result fin stream
              && Array.for_all (fun b -> same_result scalar b) stream)
            widths)
        (* Meet-time policies are excluded by design: their oracle
           needs replay, which a chunked schedule refuses. *)
        (ignore n;
         [ Algorithms.waiting; Algorithms.gathering ]
         @ Gathering_variants.all))

let prop_streamed_coin_reps_match_finite =
  QCheck.Test.make ~count:20
    ~name:"batch: streamed coin run_reps = frozen run_reps (per-rep streams)"
    instance_arb
    (fun ((_, _, seed) as inst) ->
      let finite = finite_of inst in
      let block = 1 + (seed mod 5) in
      List.for_all
        (fun (mk, p) ->
          List.for_all
            (fun r ->
              let rngs = Prng.split_n (Prng.create 1234) r in
              let fin =
                Batch_engine.run_reps ~rngs (mk (Prng.create 1234) ~p) finite r
              in
              let rngs = Prng.split_n (Prng.create 1234) r in
              let stream =
                Batch_engine.run_reps ~rngs
                  (mk (Prng.create 1234) ~p)
                  (chunked_of ~block inst) r
              in
              Array.for_all2 same_result fin stream)
            widths)
        [
          (Coin_algorithms.coin_waiting, 0.4);
          (Coin_algorithms.coin_gathering, 0.25);
        ])

(* Error path, pinned verbatim: a batch-incapable algorithm must be
   named, and the message must point at the scalar fallback. *)
let test_no_batch_rule_messages () =
  let sched = finite_of (6, 50, 1) in
  let expect_engine =
    "Batch_engine.run_reps: full-knowledge has no batch rule (Once / \
     Coin_sink / Coin_gather); run it with Engine.run"
  in
  Alcotest.check_raises "Batch_engine.run_reps names algo and fallback"
    (Invalid_argument expect_engine) (fun () ->
      ignore (Batch_engine.run_reps Algorithms.full_knowledge sched 3))

(* `Count recording drops the log but nothing else. *)
let prop_count_mode =
  QCheck.Test.make ~count:30 ~name:"batch: `Count = `All minus the log"
    instance_arb
    (fun ((n, _, _) as inst) ->
      let sched = finite_of inst in
      let algo = Algorithms.gathering in
      let full = Batch_engine.run_reps ~record:`All algo sched 4 in
      let counted = Batch_engine.run_reps ~record:`Count algo sched 4 in
      ignore n;
      Array.for_all2
        (fun (a : Engine.result) (b : Engine.result) ->
          a.stop = b.stop && a.duration = b.duration && a.steps = b.steps
          && a.transmission_count = b.transmission_count
          && a.holders = b.holders
          && Run_log.length b.log = 0)
        full counted)

(* Live-mask early termination: once every replication has aggregated
   the batch stops decoding, so a schedule whose tail is junk is never
   read past the last useful step. Coin lanes are the ones that still
   run bit-parallel; at p = 1 every lane transmits on every sink
   meeting, so all of them stay live until the third decode. *)
let test_live_mask_early_stop () =
  let n = 4 and sink = 0 in
  let meets = [ (0, 1); (0, 2); (0, 3) ] in
  let filler = List.init 1000 (fun _ -> (1, 2)) in
  let s =
    Doda_dynamic.Sequence.of_list
      (List.map (fun (a, b) -> Interaction.make a b) (meets @ filler))
  in
  let sched = Schedule.of_sequence ~n ~sink s in
  let stats = Batch_engine.stats () in
  let r = 200 in
  let rngs = Doda_sim.Experiment.split_seeds ~replications:r ~seed:9 in
  let algo = Coin_algorithms.coin_waiting (Prng.create 9) ~p:1.0 in
  let results = Batch_engine.run_reps ~rngs ~stats algo sched r in
  Alcotest.(check int) "decodes stop at aggregation" 3 stats.decodes;
  Alcotest.(check int) "every live rep stepped per decode" (3 * r)
    stats.lane_steps;
  Array.iter
    (fun (b : Engine.result) ->
      Alcotest.(check bool) "aggregated" true (b.stop = Engine.All_aggregated);
      Alcotest.(check int) "steps" 3 b.steps)
    results

(* A deterministic rule makes every replication the same execution, so
   run_reps executes it once: one lane of work, R equal results, and no
   two results share a mutable holders array. *)
let test_deterministic_runs_once () =
  let sched = finite_of (9, 300, 42) in
  let r = 130 in
  List.iter
    (fun (algo : Doda_core.Algorithm.t) ->
      let scalar = Engine.run algo sched in
      let stats = Batch_engine.stats () in
      let batch = Batch_engine.run_reps ~stats algo sched r in
      let name = algo.Doda_core.Algorithm.name in
      Alcotest.(check int) (name ^ ": one decode per scalar step")
        scalar.Engine.steps stats.decodes;
      Alcotest.(check int) (name ^ ": lane_steps = decodes") stats.decodes
        stats.lane_steps;
      Alcotest.(check int) (name ^ ": R results") r (Array.length batch);
      Array.iteri
        (fun i (b : Engine.result) ->
          Alcotest.(check bool) (name ^ ": rep = Engine.run") true
            (same_result scalar b);
          for j = 0 to i - 1 do
            if batch.(j).holders == b.holders then
              Alcotest.failf "%s: reps %d and %d share holders" name j i
          done)
        batch)
    [
      Algorithms.waiting;
      Algorithms.gathering;
      Algorithms.waiting_greedy ~tau:(Theory.recommended_tau 9);
    ]

let to_alcotest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "batch"
    [
      ( "run_reps",
        List.map to_alcotest
          [
            prop_run_reps_matches_scalar;
            prop_coin_reps_match_scalar;
            prop_run_reps_generator;
            prop_count_mode;
          ]
        @ [
            Alcotest.test_case "remainder widths" `Quick test_remainder_widths;
            Alcotest.test_case "live-mask early stop" `Quick
              test_live_mask_early_stop;
            Alcotest.test_case "deterministic rule runs once" `Quick
              test_deterministic_runs_once;
          ] );
      ( "streamed",
        List.map to_alcotest
          [
            prop_streamed_reps_match_finite;
            prop_streamed_coin_reps_match_finite;
          ]
        @ [
            Alcotest.test_case "no-batch-rule messages" `Quick
              test_no_batch_rule_messages;
          ] );
      ("oracle", [ to_alcotest prop_lazy_oracle_matches_indexed ]);
    ]
