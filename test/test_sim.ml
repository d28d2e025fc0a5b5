(* Tests for the experiment harness. *)

module Experiment = Doda_sim.Experiment
module Scaling = Doda_sim.Scaling
module Table = Doda_sim.Table
module Csv = Doda_sim.Csv
module Algorithms = Doda_core.Algorithms
module Prng = Doda_prng.Prng

(* A measurement against the uniform adversary, one
   [Experiment.replication_schedule] per replication, as the CLI's
   scalar sweep builds them. *)
let uniform ?jobs ?max_steps ~replications ?seed ~n
    (algo : Doda_core.Algorithm.t) =
  let max_steps =
    match max_steps with Some m -> m | None -> (200 * n * n) + 10_000
  in
  Experiment.run_schedule_factory ?jobs ~replications ?seed ~max_steps
    ~label:algo.name ~n
    (fun rng ->
      Experiment.replication_schedule algo ~n ~sink:0
        (Doda_dynamic.Generators.uniform rng ~n))
    algo

let test_replicate_deterministic () =
  let f rng = Prng.int rng 1000 in
  let a = Experiment.replicate_par ~jobs:1 ~replications:10 ~seed:5 f in
  let b = Experiment.replicate_par ~jobs:1 ~replications:10 ~seed:5 f in
  Alcotest.(check (array int)) "same seed, same draws" a b;
  let c = Experiment.replicate_par ~jobs:1 ~replications:10 ~seed:6 f in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* [f] over the pre-split streams, in order, on the calling domain. *)
let sequential ~replications ~seed f =
  Array.map f (Experiment.split_seeds ~replications ~seed)

let test_replicate_par_matches_sequential () =
  (* The parallel runner pre-splits seeds sequentially on the calling
     domain, so results must be bit-identical to the sequential map at
     every job count. *)
  let f rng = Prng.int rng 1_000_000 in
  let sequential = sequential ~replications:25 ~seed:42 f in
  List.iter
    (fun jobs ->
      let par = Experiment.replicate_par ~jobs ~replications:25 ~seed:42 f in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d bit-identical" jobs)
        sequential par)
    [ 1; 2; 4 ]

let test_run_uniform_par_matches_sequential () =
  (* Full measurement pipeline: simulated durations, failure counts and
     sample order must not depend on the job count. *)
  let run jobs = uniform ?jobs ~replications:12 ~seed:9 ~n:16 Algorithms.gathering in
  let reference = run None in
  List.iter
    (fun jobs ->
      let m = run (Some jobs) in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "jobs=%d same samples" jobs)
        reference.samples m.samples;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d same failures" jobs)
        reference.failures m.failures)
    [ 1; 2; 4 ]

let test_replicate_par_shared_pool () =
  (* A caller-provided pool must yield the same results as the
     internal per-call pool and survive multiple dispatches. *)
  let f rng = Prng.float rng 1.0 in
  let sequential = sequential ~replications:9 ~seed:3 f in
  Doda_sim.Pool.with_pool ~jobs:3 (fun pool ->
      for _ = 1 to 3 do
        let par = Experiment.replicate_par ~pool ~replications:9 ~seed:3 f in
        Alcotest.(check (array (float 0.0))) "pool run bit-identical"
          sequential par
      done)

let test_run_uniform_gathering () =
  let m = uniform ~replications:5 ~n:12 Algorithms.gathering in
  Alcotest.(check int) "all succeed" 0 m.failures;
  Alcotest.(check int) "five samples" 5 (Array.length m.samples);
  Alcotest.(check string) "label" "gathering" m.label;
  (* Gathering needs at least n-1 interactions. *)
  Array.iter
    (fun s -> Alcotest.(check bool) "at least n-1" true (s >= 11.0))
    m.samples

let test_failures_counted () =
  (* A tiny budget forces failures for waiting. *)
  let m = uniform ~replications:5 ~max_steps:3 ~n:12 Algorithms.waiting in
  Alcotest.(check int) "all fail" 5 m.failures;
  Alcotest.(check (float 1e-9)) "success rate" 0.0 (Experiment.success_rate m)

let test_mean_raises_when_all_failed () =
  let m = uniform ~replications:2 ~max_steps:1 ~n:10 Algorithms.waiting in
  Alcotest.check_raises "no samples"
    (Invalid_argument "Experiment.mean: no successful runs for waiting") (fun () ->
      ignore (Experiment.mean m))

let test_scaling_exponent_gathering () =
  (* Gathering is Theta(n^2): the fitted exponent over a small sweep
     should land near 2. *)
  let ms =
    List.map
      (fun n -> uniform ~replications:8 ~seed:11 ~n Algorithms.gathering)
      [ 16; 32; 64; 128 ]
  in
  let fit = Scaling.exponent (Scaling.points_of ms) in
  Alcotest.(check bool)
    (Printf.sprintf "exponent %.2f in [1.7, 2.3]" fit.slope)
    true
    (fit.slope > 1.7 && fit.slope < 2.3)

let test_ratio_stability_detects_shape () =
  let points =
    [
      { Scaling.n = 10; mean = 210.0; std_error = 1.0; success = 1.0 };
      { Scaling.n = 20; mean = 820.0; std_error = 1.0; success = 1.0 };
      { Scaling.n = 40; mean = 3250.0; std_error = 1.0; success = 1.0 };
    ]
  in
  let _, cv_good =
    Scaling.ratio_stability ~predicted:(fun n -> float_of_int (n * n)) points
  in
  let _, cv_bad = Scaling.ratio_stability ~predicted:float_of_int points in
  Alcotest.(check bool) "n^2 is stable" true (cv_good < 0.05);
  Alcotest.(check bool) "n is not" true (cv_bad > 0.3)

let test_table_render () =
  let t = Table.create ~header:[ "n"; "mean" ] in
  Table.add_row t [ "16"; "123.4" ];
  Table.add_row t [ "256"; "9.0" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check bool) "header contains n" true
        (String.length header >= 1 && header.[0] = 'n');
      Alcotest.(check bool) "rule dashes" true (String.contains rule '-')
  | _ -> Alcotest.fail "short render");
  Alcotest.check_raises "bad width"
    (Invalid_argument "Table.add_row: row width differs from header") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "integer" "42" (Table.cell_f 42.0);
  Alcotest.(check string) "fraction" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "ratio" "0.500" (Table.cell_ratio 0.5)

module Analysis = Doda_sim.Analysis
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Generators = Doda_dynamic.Generators
module Engine = Doda_core.Engine

let chain_run () =
  (* 3 -> 2 at t=0, 2 -> 1 at t=1, 1 -> 0 at t=2: a single chain. *)
  let s =
    Schedule.of_sequence ~n:4 ~sink:0 (Sequence.of_pairs [ (2, 3); (1, 2); (0, 1) ])
  in
  Engine.run Algorithms.gathering s

let test_analysis_chain () =
  let r = chain_run () in
  let parent = Analysis.aggregation_parent ~n:4 r in
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 2 |] parent;
  Alcotest.(check (list (pair int int))) "route of 3" [ (0, 2); (1, 1); (2, 0) ]
    (Analysis.datum_route ~n:4 ~sink:0 r 3);
  let deliveries = Analysis.delivery_times ~n:4 ~sink:0 r in
  Alcotest.(check (option int)) "sink datum" None deliveries.(0);
  Alcotest.(check (option int)) "node 1 delivered at 2" (Some 2) deliveries.(1);
  Alcotest.(check (option int)) "node 3 delivered at 2" (Some 2) deliveries.(3);
  Alcotest.(check (array int)) "hops" [| 0; 1; 2; 3 |]
    (Analysis.hop_counts ~n:4 ~sink:0 r);
  Alcotest.(check int) "max hops" 3 (Analysis.max_hops ~n:4 ~sink:0 r);
  Alcotest.(check (option (float 1e-9))) "mean delivery" (Some 2.0)
    (Analysis.mean_delivery_time ~n:4 ~sink:0 r)

let test_analysis_stranded_datum () =
  (* 2 -> 1 at t=0 but node 1 never reaches the sink. *)
  let s = Schedule.of_sequence ~n:3 ~sink:0 (Sequence.of_pairs [ (1, 2); (1, 2) ]) in
  let r = Engine.run Algorithms.gathering s in
  let deliveries = Analysis.delivery_times ~n:3 ~sink:0 r in
  Alcotest.(check (option int)) "stranded" None deliveries.(2);
  Alcotest.(check (option (float 1e-9))) "nothing delivered" None
    (Analysis.mean_delivery_time ~n:3 ~sink:0 r)

let test_analysis_waiting_is_one_hop () =
  let rng = Doda_prng.Prng.create 91 in
  let n = 8 in
  let s = Generators.uniform_sequence rng ~n ~length:50_000 in
  let r = Engine.run Algorithms.waiting (Schedule.of_sequence ~n ~sink:0 s) in
  Alcotest.(check bool) "terminated" true (r.stop = Engine.All_aggregated);
  (* Waiting never relays: every datum reaches the sink directly. *)
  Alcotest.(check int) "one hop" 1 (Analysis.max_hops ~n ~sink:0 r)

let test_timeline_render () =
  let module Schedule = Doda_dynamic.Schedule in
  let module Sequence = Doda_dynamic.Sequence in
  let module Engine = Doda_core.Engine in
  let s =
    Schedule.of_sequence ~n:3 ~sink:0 (Sequence.of_pairs [ (1, 2); (0, 1) ])
  in
  let r = Engine.run Algorithms.gathering s in
  let out = Doda_sim.Timeline.render ~width:10 ~n:3 ~sink:0 r in
  let lines = String.split_on_char '\n' out in
  (* header + 3 node rows + trailing blank *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "sender marks" true (String.contains out '>');
  Alcotest.(check bool) "sink receipt" true (String.contains out '#')

let test_timeline_transmissions_table () =
  let module Schedule = Doda_dynamic.Schedule in
  let module Sequence = Doda_dynamic.Sequence in
  let module Engine = Doda_core.Engine in
  let s = Schedule.of_sequence ~n:3 ~sink:0 (Sequence.of_pairs [ (0, 2) ]) in
  let r = Engine.run Algorithms.gathering s in
  Alcotest.(check string) "one line" "t=0      2 -> 0\n"
    (Doda_sim.Timeline.transmissions_table r)

module Workload = Doda_sim.Workload

let test_workload_parse_roundtrip () =
  List.iter
    (fun s ->
      match Workload.parse s with
      | Ok w -> Alcotest.(check string) s s (Workload.to_string w)
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [
      "uniform"; "sink-biased:5"; "round-robin"; "waypoint"; "community:4:0.8";
      "grid:5:5"; "markov:0.01:0.2"; "t-interval:32"; "bounded-recurrent:64";
      "trace:/tmp/x.trace";
    ]

let test_workload_parse_errors () =
  (* Every malformed variant must be rejected with its specific
     diagnostic, not just a generic failure. *)
  let unknown =
    "unknown workload; syntax: uniform | sink-biased:W | round-robin | \
     waypoint | community:K:P | grid:R:C | markov:PON:POFF | t-interval:W | \
     bounded-recurrent:B | trace:FILE"
  in
  List.iter
    (fun (s, expected) ->
      match Workload.parse s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error e -> Alcotest.(check string) ("message for " ^ s) expected e)
    [
      ("nope", unknown);
      ("trace", unknown);
      ("", unknown);
      ( "sink-biased:-1",
        "sink-biased needs a positive weight, e.g. sink-biased:5.0" );
      ( "sink-biased:zero",
        "sink-biased needs a positive weight, e.g. sink-biased:5.0" );
      ("community:0:0.5", "community needs groups and p_intra, e.g. community:4:0.8");
      ("community:4:1.5", "community needs groups and p_intra, e.g. community:4:0.8");
      ("grid:0:3", "grid needs rows and cols, e.g. grid:5:5");
      ("grid:3", unknown);
      ("markov:0:0.5", "markov needs two probabilities in (0,1], e.g. markov:0.01:0.2");
      ("markov:2:0.5", "markov needs two probabilities in (0,1], e.g. markov:0.01:0.2");
      ("markov:0.5", unknown);
      ("t-interval:0", "t-interval needs a window >= 1, e.g. t-interval:32");
      ( "bounded-recurrent:x",
        "bounded-recurrent needs a bound >= 1, e.g. bounded-recurrent:64" );
    ]

let test_workload_schedules_run () =
  List.iter
    (fun s ->
      match Workload.parse s with
      | Error e -> Alcotest.fail e
      | Ok w ->
          Alcotest.(check bool) (s ^ " finite?") (s = "trace:/tmp/x.trace")
            (Workload.is_finite w);
          if not (Workload.is_finite w) then begin
            let sched = Workload.schedule w ~n:8 ~sink:0 ~seed:5 in
            let r = Engine.run ~max_steps:500_000 Algorithms.gathering sched in
            Alcotest.(check bool) (s ^ " terminates") true
              (r.Engine.stop = Engine.All_aggregated)
          end)
    [
      "uniform"; "sink-biased:5"; "round-robin"; "waypoint"; "community:3:0.8";
      "grid:4:4"; "markov:0.05:0.3"; "t-interval:12"; "trace:/tmp/x.trace";
    ];
  (* bounded-recurrent draws only spanning-tree edges, so Gathering can
     strand two non-adjacent holders and aggregation need not
     terminate — but gossip always covers (the footprint is connected
     and recurs forever). *)
  match Workload.parse "bounded-recurrent:16" with
  | Error e -> Alcotest.fail e
  | Ok w ->
      let sched = Workload.schedule w ~n:8 ~sink:0 ~seed:5 in
      let r =
        Doda_core.Gossip.run ~max_steps:500_000
          ~problem:(Doda_core.Problem.dissemination ~k:8)
          sched
      in
      Alcotest.(check bool) "bounded-recurrent gossip covers" true
        (r.Doda_core.Gossip.stop = Engine.All_aggregated)

(* Workload.check: the one-line job-parameter check the CLI and serve
   run before building anything. Messages are pinned verbatim. *)
let test_workload_check_messages () =
  let parse s =
    match Workload.parse s with Ok w -> w | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (src, n, sink, reps, expected) ->
      let got =
        match Workload.check ?reps (parse src) ~n ~sink with
        | Ok () -> "ok"
        | Error e -> e
      in
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d sink=%d" src n sink)
        expected got)
    [
      ("uniform", 1, 0, None, "n must be >= 2, got 1");
      ("uniform", 32, 40, None, "sink must be < n = 32, got 40");
      ("uniform", 32, -1, None, "sink must be >= 0, got -1");
      ("uniform", 32, 31, None, "ok");
      ("uniform", 2, 0, Some 1, "ok");
      ("uniform", 8, 0, Some 0, "reps must be >= 1, got 0");
      ( "t-interval:16", 24, 0, None,
        "t-interval:16 needs a window of 1 or >= n - 1 = 23" );
      ("t-interval:1", 24, 0, None, "ok");
      ("t-interval:23", 24, 0, None, "ok");
      ( "bounded-recurrent:10", 8, 0, None,
        "bounded-recurrent:10 needs a bound >= 2 * (n - 1) = 14" );
      ("bounded-recurrent:14", 8, 0, None, "ok");
      ( "uniform", Doda_dynamic.Interaction.max_node_id + 2, 0, None,
        Printf.sprintf "n must be <= %d, got %d"
          (Doda_dynamic.Interaction.max_node_id + 1)
          (Doda_dynamic.Interaction.max_node_id + 2) );
      ("trace:/nonexistent", 1, 5, None, "ok");
      ("trace:/nonexistent", 1, -1, None, "sink must be >= 0, got -1");
    ]

(* The check agrees with the generators' own rules: a generated source
   builds (and draws) exactly when the check accepts it. *)
let prop_workload_check_matches_build =
  let sources =
    [
      "uniform"; "sink-biased:2"; "round-robin"; "waypoint"; "community:3:0.5";
      "grid:3:3"; "markov:0.2:0.2"; "t-interval:1"; "t-interval:6";
      "t-interval:20"; "bounded-recurrent:5"; "bounded-recurrent:16";
    ]
  in
  QCheck.Test.make ~count:300 ~name:"Workload.check = builds without error"
    QCheck.(
      triple (make ~print:Fun.id (Gen.oneofl sources)) (int_range 0 14)
        (int_range (-2) 16))
    (fun (src, n, sink) ->
      let w = Result.get_ok (Workload.parse src) in
      let builds =
        match
          let sched = Workload.schedule w ~n ~sink ~seed:3 in
          for t = 0 to 63 do
            ignore (Schedule.get_exn sched t)
          done
        with
        | () -> true
        | exception Invalid_argument _ -> false
      in
      Result.is_ok (Workload.check w ~n ~sink) = builds)

let test_workload_trace_roundtrip () =
  let rng = Doda_prng.Prng.create 7 in
  let s = Generators.uniform_sequence rng ~n:5 ~length:200 in
  let path = Filename.temp_file "doda_workload" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Doda_dynamic.Trace.save path s;
      match Workload.parse ("trace:" ^ path) with
      | Error e -> Alcotest.fail e
      | Ok w ->
          let sched = Workload.schedule w ~n:2 ~sink:0 ~seed:0 in
          Alcotest.(check int) "n enlarged to fit" 5 (Schedule.n sched);
          Alcotest.(check (option int)) "finite length" (Some 200)
            (Schedule.length sched))

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d" (Csv.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_write () =
  let path = Filename.temp_file "doda" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write path ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ];
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check (list string)) "content" [ "x,y"; "1,2"; "3,4" ]
        (List.rev !lines))

let () =
  Alcotest.run "sim"
    [
      ( "experiment",
        [
          Alcotest.test_case "replicate deterministic" `Quick
            test_replicate_deterministic;
          Alcotest.test_case "replicate_par matches sequential" `Quick
            test_replicate_par_matches_sequential;
          Alcotest.test_case "run_uniform jobs-invariant" `Quick
            test_run_uniform_par_matches_sequential;
          Alcotest.test_case "replicate_par shared pool" `Quick
            test_replicate_par_shared_pool;
          Alcotest.test_case "run uniform gathering" `Quick test_run_uniform_gathering;
          Alcotest.test_case "failures counted" `Quick test_failures_counted;
          Alcotest.test_case "mean raises when all failed" `Quick
            test_mean_raises_when_all_failed;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "gathering exponent" `Slow test_scaling_exponent_gathering;
          Alcotest.test_case "ratio stability" `Quick test_ratio_stability_detects_shape;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "chain" `Quick test_analysis_chain;
          Alcotest.test_case "stranded datum" `Quick test_analysis_stranded_datum;
          Alcotest.test_case "waiting is one hop" `Quick
            test_analysis_waiting_is_one_hop;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "render" `Quick test_timeline_render;
          Alcotest.test_case "transmissions table" `Quick
            test_timeline_transmissions_table;
        ] );
      ( "workload",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_workload_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_workload_parse_errors;
          Alcotest.test_case "schedules run" `Slow test_workload_schedules_run;
          Alcotest.test_case "trace roundtrip" `Quick test_workload_trace_roundtrip;
          Alcotest.test_case "check messages" `Quick test_workload_check_messages;
          QCheck_alcotest.to_alcotest prop_workload_check_matches_build;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "write" `Quick test_csv_write;
        ] );
    ]
