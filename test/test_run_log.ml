(* The flat SoA transmission log and the unified run-core.

   - Run_log itself: round-trips, O(1) accessors, derived arrays.
   - Differential: [Run_log.to_list] on a run equals the seed engine's
     list semantics (order, fields) — reconstructed independently here
     through an [on_transmit] observer and through the manual stepping
     API — for every paper algorithm on one shared schedule per seed.
   - Property: [Engine.run] and [Duel.run] outputs always pass
     [Validate.execution] with zero violations across algorithms x
     adversaries x seeds (the one-run-core invariant: no driver can
     drift from the model rules).
   - result.holders is a snapshot: mutating it cannot corrupt a live
     state or later results. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Engine = Doda_core.Engine
module Run_log = Doda_core.Run_log
module Validate = Doda_core.Validate
module Algorithms = Doda_core.Algorithms
module Theory = Doda_core.Theory
module Adversary = Doda_adversary.Adversary
module Spiteful = Doda_adversary.Spiteful
module Randomized = Doda_adversary.Randomized
module Duel = Doda_adversary.Duel
module Prng = Doda_prng.Prng

let tr_list =
  Alcotest.(
    list
      (testable
         (fun ppf (t : Engine.transmission) ->
           Format.fprintf ppf "{t=%d;%d->%d}" t.time t.sender t.receiver)
         ( = )))

(* ------------------------------------------------------------------ *)
(* Run_log unit behaviour                                              *)

let test_log_roundtrip () =
  let entries =
    [
      { Run_log.time = 0; sender = 3; receiver = 1 };
      { Run_log.time = 4; sender = 1; receiver = 2 };
      { Run_log.time = 9; sender = 2; receiver = 0 };
    ]
  in
  let log = Run_log.of_list entries in
  Alcotest.(check int) "length" 3 (Run_log.length log);
  Alcotest.check tr_list "to_list round-trips" entries (Run_log.to_list log);
  Alcotest.(check int) "time 1" 4 (Run_log.time log 1);
  Alcotest.(check int) "sender 1" 1 (Run_log.sender log 1);
  Alcotest.(check int) "receiver 2" 0 (Run_log.receiver log 2);
  Alcotest.(check bool) "get boxes entry" true
    (Run_log.get log 0 = List.hd entries)

let test_log_derived_arrays () =
  let log =
    Run_log.of_list
      [
        { Run_log.time = 2; sender = 3; receiver = 1 };
        { Run_log.time = 5; sender = 1; receiver = 0 };
      ]
  in
  Alcotest.(check (array int)) "fire_times" [| -1; 5; -1; 2 |]
    (Run_log.fire_times log ~n:4);
  Alcotest.(check (array int)) "parents" [| -1; 0; -1; 1 |]
    (Run_log.parents log ~n:4);
  (* Cache refreshes when the log grows or n changes. *)
  Run_log.add log ~time:7 ~sender:2 ~receiver:0;
  Alcotest.(check (array int)) "fire_times after append" [| -1; 5; 7; 2 |]
    (Run_log.fire_times log ~n:4);
  Alcotest.(check (array int)) "parents at larger n" [| -1; 0; 0; 1; -1 |]
    (Run_log.parents log ~n:5)

(* ------------------------------------------------------------------ *)
(* Differential: flat log = list semantics of the seed engine          *)

let algos_for n =
  [
    Algorithms.waiting;
    Algorithms.gathering;
    Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n);
    Algorithms.full_knowledge;
  ]

let test_log_matches_list_semantics () =
  List.iter
    (fun seed ->
      let n = 9 in
      let s =
        Generators.uniform_sequence (Prng.create seed) ~n ~length:4_000
      in
      let shared = Schedule.of_sequence ~n ~sink:0 s in
      List.iter
        (fun algo ->
          (* Reference 1: an [on_transmit] observer consing the
             seed-style list, independent of the log. *)
          let observed = ref [] in
          let obs =
            Engine.observer
              ~on_transmit:(fun ~time ~sender ~receiver ->
                observed := { Engine.time; sender; receiver } :: !observed)
              ()
          in
          let r = Engine.run ~observers:[ obs ] algo shared in
          let name = algo.Doda_core.Algorithm.name in
          Alcotest.check tr_list
            (name ^ ": to_list = observer order and fields")
            (List.rev !observed)
            (Run_log.to_list r.log);
          Alcotest.(check int)
            (name ^ ": count agrees")
            r.transmission_count
            (Run_log.length r.log);
          (* Reference 2: the manual stepping API, transmission by
             transmission. *)
          let st = Engine.start algo shared in
          let stepped = ref [] in
          let finished = ref false in
          while not !finished do
            match Engine.step st with
            | Engine.Finished _ -> finished := true
            | Engine.Stepped (Some tr) -> stepped := tr :: !stepped
            | Engine.Stepped None -> ()
          done;
          Alcotest.check tr_list
            (name ^ ": to_list = stepped transmissions")
            (List.rev !stepped)
            (Run_log.to_list r.log))
        (algos_for n))
    [ 1; 42; 9001 ]

(* ------------------------------------------------------------------ *)
(* Property: every driver's output validates with zero violations      *)

let seed_arb =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
    QCheck.Gen.(
      map2 (fun n seed -> (n, seed)) (int_range 3 12) (int_range 0 1_000_000))

let prop_engine_runs_validate_clean =
  QCheck.Test.make ~count:150 ~name:"run-core: Engine.run validates clean"
    seed_arb
    (fun (n, seed) ->
      let s =
        Generators.uniform_sequence (Prng.create seed) ~n ~length:(60 * n * n)
      in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      List.for_all
        (fun algo ->
          let r = Engine.run algo sched in
          Validate.execution ~n ~sink:0 s r.Engine.log = [])
        (algos_for n))

let adversaries_for ~n ~seed =
  [
    Adversary.of_sequence ~name:"uniform"
      (Generators.uniform_sequence (Prng.create seed) ~n ~length:(40 * n * n));
    Spiteful.adversary ~n ~sink:0;
    Adversary.limit (40 * n * n) (Randomized.uniform (Prng.create seed) ~n);
  ]

let prop_duel_runs_validate_clean =
  QCheck.Test.make ~count:100 ~name:"run-core: Duel.run validates clean"
    seed_arb
    (fun (n, seed) ->
      List.for_all
        (fun adv ->
          List.for_all
            (fun algo ->
              let r, played =
                Duel.run ~max_steps:(40 * n * n) ~n ~sink:0 algo adv
              in
              Validate.execution ~n ~sink:0 played r.Engine.log = [])
            [ Algorithms.waiting; Algorithms.gathering ])
        (adversaries_for ~n ~seed))

(* ------------------------------------------------------------------ *)
(* Observers and snapshots                                             *)

let test_observer_counts_match () =
  let n = 8 in
  let s = Generators.uniform_sequence (Prng.create 5) ~n ~length:5_000 in
  let sched = Schedule.of_sequence ~n ~sink:0 s in
  let steps = ref 0 and txs = ref 0 and finishes = ref 0 in
  let obs =
    Engine.observer
      ~on_step:(fun ~time:_ _ -> incr steps)
      ~on_transmit:(fun ~time:_ ~sender:_ ~receiver:_ -> incr txs)
      ~on_finish:(fun _ -> incr finishes)
      ()
  in
  (* Observers fire identically under `Count: they are independent of
     log recording. *)
  let r = Engine.run ~record:`Count ~observers:[ obs ] Algorithms.gathering sched in
  Alcotest.(check int) "on_step per interaction" r.Engine.steps !steps;
  Alcotest.(check int) "on_transmit per transmission" r.Engine.transmission_count !txs;
  Alcotest.(check int) "on_finish once" 1 !finishes;
  Alcotest.(check int) "`Count keeps the log empty" 0 (Run_log.length r.Engine.log)

let test_holders_is_a_snapshot () =
  let s = Sequence.of_pairs [ (1, 2); (0, 1) ] in
  let st =
    Engine.start Algorithms.gathering (Schedule.of_sequence ~n:3 ~sink:0 s)
  in
  ignore (Engine.step st);
  let r = Engine.finish st Engine.Step_limit in
  r.Engine.holders.(1) <- false;
  (* Mutating the returned snapshot must not leak into the live run or
     into later results. *)
  Alcotest.(check bool) "live state unaffected" true (Engine.owns st 1);
  let r2 = Engine.finish st Engine.Step_limit in
  Alcotest.(check bool) "fresh result unaffected" true r2.Engine.holders.(1)

(* ------------------------------------------------------------------ *)

let to_alcotest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "run_log"
    [
      ( "log",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "derived arrays" `Quick test_log_derived_arrays;
        ] );
      ( "differential",
        [
          Alcotest.test_case "flat log = list semantics" `Quick
            test_log_matches_list_semantics;
        ] );
      ( "validation",
        List.map to_alcotest
          [ prop_engine_runs_validate_clean; prop_duel_runs_validate_clean ] );
      ( "observers",
        [
          Alcotest.test_case "counts match" `Quick test_observer_counts_match;
          Alcotest.test_case "holders snapshot" `Quick
            test_holders_is_a_snapshot;
        ] );
    ]
