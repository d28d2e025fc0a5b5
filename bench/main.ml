(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md
   (E1 .. E10, one per theorem of the paper) and finishes with Bechamel
   micro-benchmarks of the core machinery.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e4 e6   # selected experiments
     dune exec bench/main.exe -- micro   # only the micro-benchmarks
     dune exec bench/main.exe -- --jobs 4 e4   # 4 domains

   Numbers are means over replications with a fixed master seed, so
   output is reproducible run to run. Replications run in parallel on
   a domain pool (--jobs N / -j N, or the DODA_JOBS environment
   variable; default Domain.recommended_domain_count). Seeds are
   pre-split sequentially on the main domain, so every table is
   bit-identical whatever the job count.

   Besides the tables (and their CSV mirrors under DODA_BENCH_CSV), a
   machine-readable archive of everything measured — per-experiment
   wall-clock plus every table — is written to BENCH_results.json
   (path overridable via DODA_BENCH_JSON; set it empty to disable). *)

module Prng = Doda_prng.Prng
module Descriptive = Doda_stats.Descriptive
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Interaction = Doda_dynamic.Interaction
module Temporal = Doda_dynamic.Temporal
module Static_graph = Doda_graph.Static_graph
module Graph_gen = Doda_graph.Graph_gen
module Engine = Doda_core.Engine
module Batch_engine = Doda_core.Batch_engine
module Run_log = Doda_core.Run_log
module Convergecast = Doda_core.Convergecast
module Cost = Doda_core.Cost
module Knowledge = Doda_core.Knowledge
module Theory = Doda_core.Theory
module Algorithms = Doda_core.Algorithms
module Waiting_greedy = Doda_core.Waiting_greedy
module Mobility = Doda_dynamic.Mobility
module Gen_kernel = Doda_dynamic.Gen_kernel
module Tvg_class = Doda_dynamic.Tvg_class
module Problem = Doda_core.Problem
module Gossip = Doda_core.Gossip
module Randomized = Doda_adversary.Randomized
module Duel = Doda_adversary.Duel
module Counterexamples = Doda_adversary.Counterexamples
module Experiment = Doda_sim.Experiment
module Scaling = Doda_sim.Scaling
module Table = Doda_sim.Table
module Obs_metrics = Doda_obs.Metrics
module Obs_span = Doda_obs.Span

let master_seed = 20160701
let replications = 20
let sweep_ns = [ 32; 64; 128; 256 ]

let header title body =
  Printf.printf "\n=== %s ===\n%s\n" title body

(* ------------------------------------------------------------------ *)
(* Parallel replication: one shared domain pool, sized by --jobs /
   DODA_JOBS, created lazily after argument parsing. Seeds are
   pre-split sequentially by Experiment.replicate_par, so results are
   bit-identical to the sequential harness at any job count. *)

module Pool = Doda_sim.Pool

let jobs =
  ref
    (try Pool.default_jobs ()
     with Invalid_argument msg ->
       prerr_endline msg;
       exit 1)
let pool = lazy (Pool.create ~jobs:!jobs)

let replicate ~replications ~seed f =
  Experiment.replicate_par ~pool:(Lazy.force pool) ~replications ~seed f

(* One span per experiment suite, archived into the JSON results and —
   with DODA_TRACE=<file> in the environment — exported as a Chrome
   trace-event file for Perfetto. The experiments themselves stay
   untelemetered here: their committed tables are byte-identical
   baselines, and suite-level spans cost one clock pair each. *)
let suite_spans = lazy (Obs_span.create ~capacity:256 ())

(* With DODA_BENCH_CSV=<dir> in the environment, every printed table is
   also archived as CSV under that directory (empty value: disabled).
   Relative paths land under DODA_SCRATCH when that is set. *)
let csv_dir =
  match Sys.getenv_opt "DODA_BENCH_CSV" with
  | Some "" | None -> None
  | Some d -> Some (Doda_sim.Scratch.resolve d)

let csv_counter = ref 0

(* Tables printed by the experiment currently running, for the JSON
   archive. *)
let current_tables : (string * Table.t) list ref = ref []

(* [csv:false] prints and archives to JSON but skips the CSV mirror:
   for tables with timing columns (generator throughput), which cannot
   serve as byte-identical regression baselines. *)
let print_table ?(csv = true) ?name table =
  Table.print table;
  let base = match name with Some n -> n | None -> "table" in
  current_tables := (base, table) :: !current_tables;
  match csv_dir with
  | None -> ()
  | Some _ when not csv -> ()
  | Some dir ->
      Doda_sim.Csv.mkdir_p dir;
      incr csv_counter;
      let path = Filename.concat dir (Printf.sprintf "%02d_%s.csv" !csv_counter base) in
      Doda_sim.Csv.write path ~header:(Table.header_row table) (Table.rows table);
      Printf.printf "[csv written to %s]\n" path

let fmt = Table.cell_f
let ratio = Table.cell_ratio

let mean_stderr samples =
  (Descriptive.mean samples, Descriptive.std_error samples)

(* Durations (interactions to completion) of replicated runs of [algo]
   against the uniform randomized adversary. Most consumers only read
   durations, so transmission logging is off by default; experiments
   that inspect the log (E1, LATENCY) pass ~record:`All. Nothing reads
   [rng] or the schedule after the run, so a knowledge-free algorithm
   streams its schedule (Experiment.replication_schedule). *)
let uniform_runs ?(record = `Count) ?(reps = replications) ?(seed = master_seed)
    ~n algo =
  replicate ~replications:reps ~seed (fun rng ->
      let sched =
        Experiment.replication_schedule algo ~n ~sink:0
          (Generators.uniform rng ~n)
      in
      Engine.run ~record ~max_steps:((200 * n * n) + 10_000) algo sched)

let durations results =
  Array.of_list
    (List.filter_map
       (fun (r : Engine.result) -> Option.map (fun d -> float_of_int (d + 1)) r.duration)
       (Array.to_list results))

(* One schedule per trace, every algorithm against it: replications run
   on the pool, each worker building a single schedule from its rng and
   running [Engine.run] over it once per algorithm, in list order (so
   a coin algorithm splits its master exactly as consecutive runs
   would). A live schedule materialises once and its sink-meeting index
   is shared by every meet-time policy. Returns, per algorithm, the
   successful durations as floats. *)
let shared_sweep ?max_steps schedule_of algos =
  let rows =
    replicate ~replications ~seed:master_seed (fun rng ->
        let sched = schedule_of rng in
        Array.of_list
          (List.map
             (fun algo ->
               (Engine.run ~record:`Count ?max_steps algo sched).duration)
             algos))
  in
  List.mapi
    (fun idx _ ->
      Array.of_list
        (List.filter_map
           (fun row -> Option.map (fun d -> float_of_int (d + 1)) row.(idx))
           (Array.to_list rows)))
    algos

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 7: the final transmission alone waits Omega(n^2).      *)

let e1 () =
  header "E1 | Theorem 7: last transmission waits Omega(n^2) interactions"
    "Gathering under the uniform adversary; wait = gap between the last\n\
     two transmissions; prediction = n(n-1)/2.";
  let t = Table.create ~header:[ "n"; "last-wait mean"; "stderr"; "n(n-1)/2"; "ratio" ] in
  List.iter
    (fun n ->
      let results = uniform_runs ~record:`All ~n Algorithms.gathering in
      let waits =
        Array.of_list
          (List.filter_map
             (fun (r : Engine.result) ->
               let len = Run_log.length r.log in
               if len >= 2 then
                 Some
                   (float_of_int
                      (Run_log.time r.log (len - 1) - Run_log.time r.log (len - 2)))
               else None)
             (Array.to_list results))
      in
      let m, se = mean_stderr waits in
      let predicted = Theory.expected_last_meet n in
      Table.add_row t
        [ string_of_int n; fmt m; fmt se; fmt predicted; ratio (m /. predicted) ])
    sweep_ns;
  print_table t

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 8: full knowledge / broadcast is Theta(n log n).       *)

let e2 () =
  header "E2 | Theorem 8: broadcast & optimal convergecast in Theta(n log n)"
    "Flooding completion and offline opt(0) on uniform sequences;\n\
     prediction = (n-1) H(n-1); 'conc' = fraction of runs within\n\
     mean +/- n log n (the Chebyshev bound of the proof).";
  let t =
    Table.create
      ~header:
        [ "n"; "broadcast"; "convergecast"; "(n-1)H(n-1)"; "b/pred"; "c/pred"; "conc" ]
  in
  List.iter
    (fun n ->
      let horizon = 60 * n * (1 + int_of_float (log (float_of_int n))) in
      let pairs =
        replicate ~replications ~seed:master_seed (fun rng ->
            let s = Generators.uniform_sequence rng ~n ~length:horizon in
            let b = Temporal.broadcast_completion ~n ~src:0 s in
            let c = Convergecast.opt ~n ~sink:0 s 0 in
            (b, c))
      in
      let extract f =
        Array.of_list
          (List.filter_map
             (fun p -> Option.map (fun x -> float_of_int (x + 1)) (f p))
             (Array.to_list pairs))
      in
      let broadcasts = extract fst and convergecasts = extract snd in
      let mb = Descriptive.mean broadcasts and mc = Descriptive.mean convergecasts in
      let predicted = Theory.expected_broadcast n in
      let band = float_of_int n *. log (float_of_int n) in
      let within =
        Array.fold_left
          (fun acc x -> if Float.abs (x -. mb) <= band then acc + 1 else acc)
          0 broadcasts
      in
      let conc = float_of_int within /. float_of_int (Array.length broadcasts) in
      Table.add_row t
        [
          string_of_int n; fmt mb; fmt mc; fmt predicted;
          ratio (mb /. predicted); ratio (mc /. predicted); ratio conc;
        ])
    (sweep_ns @ [ 512 ]);
  print_table t

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 9a: Waiting terminates in O(n^2 log n).                *)

let scaling_experiment ~title ~note ~predicted ~pred_label algo_of_n ns =
  header title note;
  let t =
    Table.create ~header:[ "n"; "interactions"; "stderr"; pred_label; "ratio" ]
  in
  let ms =
    List.map
      (fun n ->
        let results = uniform_runs ~n (algo_of_n n) in
        let samples = durations results in
        let m, se = mean_stderr samples in
        Table.add_row t
          [
            string_of_int n; fmt m; fmt se; fmt (predicted n);
            ratio (m /. predicted n);
          ];
        { Scaling.n; mean = m; std_error = se; success = 1.0 })
      ns
  in
  print_table t;
  let fit = Scaling.exponent ms in
  let _, cv = Scaling.ratio_stability ~predicted ms in
  Printf.printf "log-log exponent: %.3f (r2=%.4f); ratio CV vs prediction: %.3f\n"
    fit.slope fit.r2 cv

let e3 () =
  scaling_experiment
    ~title:"E3 | Theorem 9a: Waiting terminates in O(n^2 log n)"
    ~note:"Uniform adversary; prediction = (n(n-1)/2) H(n-1)."
    ~predicted:Theory.expected_waiting ~pred_label:"n^2 H/2"
    (fun _ -> Algorithms.waiting)
    sweep_ns

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 9b / Corollary 2: Gathering is O(n^2), optimal without
   knowledge.                                                          *)

let e4 () =
  scaling_experiment
    ~title:"E4 | Theorem 9b: Gathering terminates in O(n^2) (optimal, Cor. 2)"
    ~note:"Uniform adversary; prediction = n(n-1)(1 - 1/n)."
    ~predicted:Theory.expected_gathering ~pred_label:"n(n-1)(1-1/n)"
    (fun _ -> Algorithms.gathering)
    sweep_ns

(* ------------------------------------------------------------------ *)
(* E5 — Lemma 1: in n f(n) interactions, Theta(f(n)) nodes meet the
   sink.                                                               *)

let e5 () =
  header "E5 | Lemma 1: interactions until the sink meets k distinct nodes"
    "n = 256; prediction = (n(n-1)/2)(H(n-1) - H(n-1-k)).";
  let n = 256 in
  let t = Table.create ~header:[ "k"; "interactions"; "stderr"; "predicted"; "ratio" ] in
  List.iter
    (fun k ->
      let samples =
        replicate ~replications ~seed:master_seed (fun rng ->
            let met = Array.make n false in
            let distinct = ref 0 in
            let steps = ref 0 in
            while !distinct < k do
              let a, b = Prng.pair rng n in
              incr steps;
              if a = 0 && not met.(b) then begin
                met.(b) <- true;
                incr distinct
              end
              else if b = 0 && not met.(a) then begin
                met.(a) <- true;
                incr distinct
              end
            done;
            float_of_int !steps)
      in
      let m, se = mean_stderr samples in
      let predicted = Theory.expected_sink_meetings ~n ~k in
      Table.add_row t
        [ string_of_int k; fmt m; fmt se; fmt predicted; ratio (m /. predicted) ])
    [ 4; 8; 16; 32; 64; 128 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* E6 — Theorem 10 / Corollary 3: Waiting Greedy with
   tau = Theta(n^{3/2} sqrt(log n)).                                   *)

let e6 () =
  header "E6 | Theorem 10/Cor 3: Waiting Greedy terminates by tau w.h.p."
    "Part A: recommended tau = ceil(n^1.5 sqrt(ln n)) across n.\n\
     'by-tau' = fraction of runs finishing within tau interactions.";
  let t =
    Table.create ~header:[ "n"; "tau"; "interactions"; "stderr"; "by-tau"; "mean/tau" ]
  in
  List.iter
    (fun n ->
      let tau = Theory.recommended_tau n in
      let results =
        replicate ~replications ~seed:master_seed (fun rng ->
            let sched = Randomized.uniform_schedule rng ~n ~sink:0 in
            Engine.run ~record:`Count ~max_steps:(8 * tau) (Algorithms.waiting_greedy ~tau) sched)
      in
      let samples = durations results in
      let m, se = mean_stderr samples in
      let by_tau =
        Array.fold_left
          (fun acc x -> if x <= float_of_int tau then acc + 1 else acc)
          0 samples
      in
      Table.add_row t
        [
          string_of_int n; string_of_int tau; fmt m; fmt se;
          Printf.sprintf "%d/%d" by_tau replications;
          ratio (m /. float_of_int tau);
        ])
    sweep_ns;
  print_table t;
  Printf.printf
    "\nPart B: tau-sweep at n = 128 over f = c sqrt(n ln n) — the\n\
     max(nf, n^2 ln n / f) tradeoff should be minimised near c = 1.\n";
  let n = 128 in
  let t2 = Table.create ~header:[ "c"; "f"; "tau"; "interactions"; "stderr" ] in
  List.iter
    (fun c ->
      let f = c *. sqrt (float_of_int n *. log (float_of_int n)) in
      let tau = Theory.tau_for_f ~n ~f in
      let results =
        replicate ~replications ~seed:master_seed (fun rng ->
            let sched = Randomized.uniform_schedule rng ~n ~sink:0 in
            Engine.run ~record:`Count ~max_steps:(40 * n * n) (Algorithms.waiting_greedy ~tau) sched)
      in
      let samples = durations results in
      let m, se = mean_stderr samples in
      Table.add_row t2
        [ ratio c; fmt f; string_of_int tau; fmt m; fmt se ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  print_table t2;
  Printf.printf
    "\nPart C (ablation): capped meetTime oracle (limit = tau) vs exact\n\
     oracle on identical finite sequences, n = 64.\n";
  let n = 64 in
  let tau = Theory.recommended_tau n in
  let t3 = Table.create ~header:[ "oracle"; "interactions"; "stderr" ] in
  let run_mode exact =
    replicate ~replications ~seed:master_seed (fun rng ->
        let len = 8 * tau in
        let s = Generators.uniform_sequence rng ~n ~length:len in
        let sched = Schedule.of_sequence ~n ~sink:0 s in
        Engine.run ~record:`Count (Waiting_greedy.make ~exact ~tau ()) sched)
  in
  List.iter
    (fun (label, exact) ->
      let samples = durations (run_mode exact) in
      let m, se = mean_stderr samples in
      Table.add_row t3 [ label; fmt m; fmt se ])
    [ ("capped", false); ("exact", true) ];
  print_table t3

(* ------------------------------------------------------------------ *)
(* E7 — Theorem 11: head-to-head; Waiting Greedy sits between
   Gathering and the offline optimum.                                  *)

let e7 () =
  header "E7 | Theorem 11: head-to-head under the uniform adversary"
    "Mean interactions to completion; 'x opt' = ratio to the offline\n\
     optimum (full knowledge). Expect optimum ~ n log n, WG ~ n^1.5,\n\
     Gathering ~ n^2, Waiting ~ n^2 log n.";
  let t =
    Table.create
      ~header:[ "n"; "optimal"; "wait-greedy"; "x opt"; "gathering"; "x opt"; "waiting"; "x opt" ]
  in
  List.iter
    (fun n ->
      let means =
        List.map Descriptive.mean
          (shared_sweep
             ~max_steps:((200 * n * n) + 10_000)
             (fun rng -> Randomized.uniform_schedule rng ~n ~sink:0)
             [
               Algorithms.full_knowledge;
               Algorithms.waiting_greedy_recommended n;
               Algorithms.gathering;
               Algorithms.waiting;
             ])
      in
      match means with
      | [ opt; wg; ga; wa ] ->
          Table.add_row t
            [
              string_of_int n; fmt opt;
              fmt wg; ratio (wg /. opt);
              fmt ga; ratio (ga /. opt);
              fmt wa; ratio (wa /. opt);
            ]
      | _ -> assert false)
    sweep_ns;
  print_table t

(* ------------------------------------------------------------------ *)
(* E8 — Theorems 1 and 3: adaptive adversaries force unbounded cost.   *)

let e8 () =
  header "E8 | Theorems 1 & 3: adaptive adversaries force cost -> infinity"
    "The algorithm never terminates while successive optimal\n\
     convergecasts keep completing on the very sequence played:\n\
     the cost lower bound grows linearly with the horizon.";
  let t =
    Table.create
      ~header:[ "adversary"; "algorithm"; "horizon"; "terminated"; "convergecasts possible" ]
  in
  let cases =
    [
      ("thm1 (n=3)", (fun () -> Counterexamples.theorem1 ()), 3, None,
       [ Algorithms.waiting; Algorithms.gathering ]);
      ("thm3 (C4)", (fun () -> Counterexamples.theorem3 ()), 4,
       Some (Knowledge.with_underlying (Counterexamples.theorem3_graph ()) Knowledge.empty),
       [ Algorithms.gathering; Algorithms.tree_aggregation ]);
    ]
  in
  (* One duel per (adversary, algorithm), played to the largest
     horizon; both duellists are deterministic, so the shorter-horizon
     duels are exact prefixes of it. A run at horizon h terminates iff
     the long run's duration lands below h, and the convergecast count
     up to h - 1 only involves windows inside the prefix, so every row
     matches the old one-duel-per-horizon table. *)
  let horizons = [ 500; 1000; 2000; 4000 ] in
  let h_max = List.fold_left Stdlib.max 0 horizons in
  List.iter
    (fun (adv_name, adv, n, knowledge, algos) ->
      List.iter
        (fun algo ->
          let r, played =
            Duel.run ?knowledge ~max_steps:h_max ~n ~sink:0 algo (adv ())
          in
          List.iter
            (fun horizon ->
              let terminated =
                match r.Engine.duration with
                | Some d -> d < horizon
                | None -> false
              in
              let possible =
                Cost.convergecasts_within ~n ~sink:0 played ~upto:(horizon - 1)
              in
              Table.add_row t
                [
                  adv_name; algo.Doda_core.Algorithm.name; string_of_int horizon;
                  (if terminated then "yes" else "no");
                  string_of_int possible;
                ])
            horizons)
        algos)
    cases;
  print_table t

(* ------------------------------------------------------------------ *)
(* E9 — Theorems 4 and 5: underlying-graph knowledge; tree vs non-tree. *)

let e9 () =
  header "E9 | Theorems 4 & 5: spanning-tree algorithm, tree vs non-tree"
    "Random edge schedules over a fixed underlying graph (n = 16).\n\
     On a tree the algorithm is optimal (cost 1, Thm 5); on a cycle\n\
     or denser graph its cost exceeds 1 and is unbounded in general\n\
     (Thm 4).";
  let n = 16 in
  let t =
    Table.create
      ~header:[ "underlying"; "mean cost"; "max cost"; "mean interactions"; "vs optimal" ]
  in
  let graphs =
    [
      ("random tree", Graph_gen.random_tree (Prng.create 7) ~n);
      ("cycle", Static_graph.cycle n);
      ("tree + 8 chords", Graph_gen.random_connected (Prng.create 9) ~n ~extra_edges:8);
    ]
  in
  List.iter
    (fun (label, g) ->
      let runs =
        replicate ~replications ~seed:master_seed (fun rng ->
            let len = 200 * n * Static_graph.edge_count g in
            let s =
              Sequence.of_array (Array.init len (Generators.over_graph rng g))
            in
            let sched = Schedule.of_sequence ~n ~sink:0 s in
            let k = Knowledge.with_underlying g Knowledge.empty in
            let r = Engine.run ~knowledge:k Algorithms.tree_aggregation sched in
            let cost = Cost.to_float (Cost.of_result ~n ~sink:0 s r) in
            let opt =
              match Convergecast.opt ~n ~sink:0 s 0 with
              | Some o -> float_of_int (o + 1)
              | None -> Float.nan
            in
            let dur =
              match r.Engine.duration with
              | Some d -> float_of_int (d + 1)
              | None -> Float.nan
            in
            (cost, dur, dur /. opt))
      in
      let costs = Array.map (fun (c, _, _) -> c) runs in
      let durs = Array.map (fun (_, d, _) -> d) runs in
      let ratios = Array.map (fun (_, _, r) -> r) runs in
      Table.add_row t
        [
          label;
          ratio (Descriptive.mean costs);
          fmt (Descriptive.max costs);
          fmt (Descriptive.mean durs);
          ratio (Descriptive.mean ratios);
        ])
    graphs;
  print_table t

(* ------------------------------------------------------------------ *)
(* E10 — Theorem 6 (future knowledge, cost <= n) and open question 3
   (non-uniform randomized adversary).                                 *)

let e10 () =
  header "E10 | Theorem 6: future gossip costs at most n convergecasts"
    "Uniform adversary, finite committed sequences.";
  let t =
    Table.create
      ~header:
        [ "n"; "mean cost"; "max cost"; "bound n"; "interactions"; "vs (n-1)H(n-1)" ]
  in
  List.iter
    (fun n ->
      let runs =
        replicate ~replications ~seed:master_seed (fun rng ->
            let len = 40 * n * (1 + int_of_float (log (float_of_int n))) in
            let s = Generators.uniform_sequence rng ~n ~length:len in
            let sched = Schedule.of_sequence ~n ~sink:0 s in
            let r = Engine.run Algorithms.future_gossip sched in
            let cost = Cost.to_float (Cost.of_result ~n ~sink:0 s r) in
            let dur =
              match r.Engine.duration with
              | Some d -> float_of_int (d + 1)
              | None -> Float.nan
            in
            (cost, dur))
      in
      let costs = Array.map fst runs and durs = Array.map snd runs in
      let mean_dur = Descriptive.mean durs in
      Table.add_row t
        [
          string_of_int n;
          ratio (Descriptive.mean costs);
          fmt (Descriptive.max costs);
          string_of_int n;
          fmt mean_dur;
          (* Corollary 1: DODA(future) terminates in Theta(n log n). *)
          ratio (mean_dur /. Theory.expected_broadcast n);
        ])
    [ 8; 16; 32 ];
  print_table t;
  Printf.printf
    "\nOpen question 3: non-uniform (sink-biased) randomized adversary,\n\
     n = 64. Sink weight w: each endpoint drawn proportionally to\n\
     weight; w = 1 is (near-)uniform.\n";
  let n = 64 in
  let t2 =
    Table.create ~header:[ "sink weight"; "waiting"; "gathering"; "wait-greedy" ]
  in
  List.iter
    (fun w ->
      let measure algo =
        let results =
          replicate ~replications ~seed:master_seed (fun rng ->
              let sched = Randomized.sink_biased_schedule rng ~n ~sink:0 ~sink_weight:w in
              Engine.run ~record:`Count ~max_steps:((400 * n * n) + 10_000) algo sched)
        in
        Descriptive.mean (durations results)
      in
      Table.add_row t2
        [
          ratio w;
          fmt (measure Algorithms.waiting);
          fmt (measure Algorithms.gathering);
          fmt (measure (Algorithms.waiting_greedy_recommended n));
        ])
    [ 0.2; 1.0; 5.0; 25.0 ];
  print_table t2

(* ------------------------------------------------------------------ *)
(* LEMMAS — the internal quantities of the Theorem 10/11 proofs.       *)

let lemmas () =
  header "LEMMAS | proof internals of Theorems 10/11, instrumented"
    "For Waiting Greedy at the recommended tau: |L| = nodes meeting\n\
     the sink within tau (the proof wants Theta(f) = Theta(sqrt(n\n\
     log n))), and where transmissions actually go: directly to the\n\
     sink, or relayed to an L-node before its sink meeting.";
  let t =
    Table.create
      ~header:[ "n"; "tau"; "|L| mean"; "f=sqrt(n ln n)"; "|L|/f"; "to sink"; "relayed" ]
  in
  List.iter
    (fun n ->
      let tau = Theory.recommended_tau n in
      let stats =
        replicate ~replications ~seed:master_seed (fun rng ->
            let sched = Randomized.uniform_schedule rng ~n ~sink:0 in
            let r =
              Engine.run ~max_steps:(8 * tau) (Algorithms.waiting_greedy ~tau) sched
            in
            (* |L|: distinct nodes interacting with the sink within the
               first tau interactions. *)
            let meets = Schedule.meets_with_sink_upto sched tau in
            let l_size = ref 0 in
            for v = 1 to n - 1 do
              if meets.(v) > 0 then incr l_size
            done;
            let direct = ref 0 and relayed = ref 0 in
            Run_log.iter
              (fun ~time:_ ~sender:_ ~receiver ->
                if receiver = 0 then incr direct else incr relayed)
              r.Engine.log;
            (float_of_int !l_size, float_of_int !direct, float_of_int !relayed))
      in
      let mean f = Descriptive.mean (Array.map f stats) in
      let l_mean = mean (fun (l, _, _) -> l) in
      let f = sqrt (float_of_int n *. log (float_of_int n)) in
      Table.add_row t
        [
          string_of_int n; string_of_int tau; fmt l_mean; fmt f;
          ratio (l_mean /. f);
          fmt (mean (fun (_, d, _) -> d));
          fmt (mean (fun (_, _, r) -> r));
        ])
    sweep_ns;
  print_table t

(* ------------------------------------------------------------------ *)
(* KNOWLEDGE — open question 1: which knowledge matters, on which
   workloads?                                                          *)

let knowledge () =
  header "KNOWLEDGE | open question 1: knowledge level x workload (n = 32)"
    "Mean interactions to completion. Columns left to right carry\n\
     increasing knowledge: none (Waiting, Gathering), meetTime\n\
     (Waiting Greedy, tuned and n-oblivious doubling), full schedule\n\
     (optimal). Workloads are committed finite traces so every\n\
     algorithm sees the same adversary.";
  let n = 32 in
  let tau = Theory.recommended_tau n in
  let algorithms =
    [
      Algorithms.waiting;
      Algorithms.gathering;
      Algorithms.waiting_greedy ~tau;
      Waiting_greedy.doubling ();
      Algorithms.full_knowledge;
    ]
  in
  let workloads =
    [
      ("uniform", fun rng -> Generators.uniform rng ~n);
      ("sink-biased w=8",
       fun rng ->
         Generators.weighted_nodes rng
           ~weights:(Array.init n (fun v -> if v = 0 then 8.0 else 1.0)));
      ("markov edges", fun rng -> Generators.markov_edges rng ~n ~p_on:0.01 ~p_off:0.2);
      ("waypoint", fun rng -> Doda_dynamic.Mobility.random_waypoint rng ~n);
      ("community 4x0.8",
       fun rng -> Doda_dynamic.Mobility.community rng ~n ~communities:4 ~p_intra:0.8);
    ]
  in
  let t =
    Table.create
      ~header:
        ("workload"
        :: List.map (fun a -> a.Doda_core.Algorithm.name) algorithms)
  in
  List.iter
    (fun (label, gen_of) ->
      let horizon = 40 * n * n in
      (* One frozen schedule per trace, generated and swept inside the
         pooled worker: the trace materializes once, its sink-meeting
         index is built once, and all five algorithms run against the
         same immutable array. *)
      let cells =
        shared_sweep
          (fun rng ->
            Schedule.freeze
              (Schedule.of_sequence ~n ~sink:0
                 (Sequence.of_array (Array.init horizon (gen_of rng)))))
          algorithms
        |> List.map (fun samples ->
               if Array.length samples = 0 then "-"
               else fmt (Descriptive.mean samples))
      in
      Table.add_row t (label :: cells))
    workloads;
  print_table t

(* ------------------------------------------------------------------ *)
(* LATENCY — per-datum delivery metrics beyond the paper's single
   termination figure.                                                 *)

let latency () =
  header "LATENCY | per-datum delivery time and aggregation depth (n = 64)"
    "Waiting delivers every datum in one hop but late; Gathering\n\
     relays aggressively (deep chains); Waiting Greedy sits between.\n\
     'mean delivery' averages, over data, the time the sink received\n\
     each original datum.";
  let n = 64 in
  let t =
    Table.create
      ~header:[ "algorithm"; "termination"; "mean delivery"; "max hops"; "mean hops" ]
  in
  List.iter
    (fun algo ->
      let runs = uniform_runs ~record:`All ~n algo in
      let terminations = durations runs in
      let deliveries = ref [] and maxhops = ref [] and meanhops = ref [] in
      Array.iter
        (fun (r : Engine.result) ->
          if r.stop = Engine.All_aggregated then begin
            (match Doda_sim.Analysis.mean_delivery_time ~n ~sink:0 r with
            | Some m -> deliveries := m :: !deliveries
            | None -> ());
            maxhops :=
              float_of_int (Doda_sim.Analysis.max_hops ~n ~sink:0 r) :: !maxhops;
            let hops = Doda_sim.Analysis.hop_counts ~n ~sink:0 r in
            let total = Array.fold_left ( + ) 0 hops in
            meanhops := (float_of_int total /. float_of_int (n - 1)) :: !meanhops
          end)
        runs;
      let mean l = Descriptive.mean (Array.of_list l) in
      Table.add_row t
        [
          algo.Doda_core.Algorithm.name;
          fmt (Descriptive.mean terminations);
          fmt (mean !deliveries);
          fmt (mean !maxhops);
          fmt (mean !meanhops);
        ])
    [
      Algorithms.waiting; Algorithms.gathering;
      Algorithms.waiting_greedy_recommended n; Algorithms.full_knowledge;
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* T2SEARCH — the Theorem 2 proof procedure, executed.                 *)

let t2search () =
  header "T2SEARCH | Theorem 2's adversary construction, run as a procedure"
    "Monte-Carlo estimation of P_l against concrete oblivious\n\
     algorithms (n = 8): the first prefix length with P_l < 1/n arms\n\
     the trap; the blocking sequence then defeats the algorithm in\n\
     most runs.";
  let n = 8 in
  let master = Prng.create master_seed in
  let t =
    Table.create
      ~header:[ "algorithm"; "l0"; "d"; "survival"; "transmit rate"; "blocked runs" ]
  in
  List.iter
    (fun algo ->
      match Counterexamples.theorem2_search ~trials:200 ~n algo with
      | None ->
          Table.add_row t
            [ algo.Doda_core.Algorithm.name; "-"; "-"; "-"; "-"; "not provocable" ]
      | Some p ->
          let s =
            Counterexamples.theorem2_sequence ~n ~l0:p.Counterexamples.l0
              ~d:p.Counterexamples.d ~periods:120
          in
          let runs = 40 in
          let blocked = ref 0 in
          for _ = 1 to runs do
            let r =
              Engine.run algo (Schedule.of_sequence ~n ~sink:0 s)
            in
            if r.Engine.stop <> Engine.All_aggregated then incr blocked
          done;
          Table.add_row t
            [
              algo.Doda_core.Algorithm.name;
              string_of_int p.Counterexamples.l0;
              string_of_int p.Counterexamples.d;
              ratio p.Counterexamples.survival;
              ratio p.Counterexamples.transmit_rate;
              Printf.sprintf "%d/%d" !blocked runs;
            ])
    [
      Algorithms.waiting;
      Algorithms.gathering;
      Doda_core.Coin_algorithms.coin_waiting master ~p:0.5;
      Doda_core.Coin_algorithms.coin_gathering master ~p:0.3;
    ];
  print_table t

(* ------------------------------------------------------------------ *)
(* EXACT — exact finite-n laws vs simulation.                          *)

let exact () =
  header "EXACT | exact finite-n distributions vs simulation"
    "Termination times are sums of independent geometrics; the exact\n\
     law (Geometric_sum over Theory phase vectors) should match both\n\
     the closed-form means and the empirical distribution (KS\n\
     distance ~ 1/sqrt(reps)). n = 32, 200 replications.";
  let module G = Doda_stats.Geometric_sum in
  let n = 32 in
  let reps = 200 in
  let t =
    Table.create
      ~header:
        [ "process"; "exact mean"; "closed form"; "sim mean"; "p50 exact"; "p99 exact"; "KS" ]
  in
  let simulate algo =
    durations
      (replicate ~replications:reps ~seed:master_seed (fun rng ->
           let sched = Randomized.uniform_schedule rng ~n ~sink:0 in
           Engine.run ~record:`Count ~max_steps:(400 * n * n) algo sched))
  in
  let broadcast_samples =
    replicate ~replications:reps ~seed:master_seed (fun rng ->
        let horizon = 200 * n in
        let s = Generators.uniform_sequence rng ~n ~length:horizon in
        match Temporal.broadcast_completion ~n ~src:0 s with
        | Some t -> float_of_int (t + 1)
        | None -> Float.nan)
  in
  let cases =
    [
      ("waiting", Theory.waiting_phases n, Theory.expected_waiting n,
       simulate Algorithms.waiting);
      ("gathering", Theory.gathering_phases n, Theory.expected_gathering n,
       simulate Algorithms.gathering);
      ("broadcast", Theory.broadcast_phases n, Theory.expected_broadcast n,
       broadcast_samples);
    ]
  in
  List.iter
    (fun (name, phases, closed_form, samples) ->
      let exact_mean = G.mean phases in
      let upto = int_of_float (6.0 *. exact_mean) in
      let cdf = G.cdf_of_pmf (G.pmf ~phases ~upto) in
      let p50 = G.quantile ~cdf 0.5 and p99 = G.quantile ~cdf 0.99 in
      let ks = G.ks_distance ~cdf ~samples in
      Table.add_row t
        [
          name; fmt exact_mean; fmt closed_form;
          fmt (Descriptive.mean samples);
          string_of_int p50; string_of_int p99; ratio ks;
        ])
    cases;
  print_table t

(* ------------------------------------------------------------------ *)
(* VARIANTS — ablations of implementation degrees of freedom the
   theorems leave open: Gathering's tie-break, and which deterministic
   spanning tree the Theorem 4/5 algorithm agrees on.                  *)

let variants () =
  header "VARIANTS | ablations: Gathering tie-breaks, spanning-tree choice"
    "Theorem 9's analysis is tie-break agnostic; measured constants\n\
     should therefore agree across variants (uniform adversary).";
  let n = 128 in
  let t = Table.create ~header:[ "gathering variant"; "interactions"; "stderr" ] in
  List.iter
    (fun algo ->
      let samples = durations (uniform_runs ~n algo) in
      let m, se = mean_stderr samples in
      Table.add_row t [ algo.Doda_core.Algorithm.name; fmt m; fmt se ])
    Doda_core.Gathering_variants.all;
  print_table t;
  Printf.printf
    "\nSpanning-tree choice for the Theorem 4/5 algorithm (n = 24,\n\
     random schedules over a connected underlying graph): a deeper\n\
     tree means longer dependency chains, hence later completion.\n";
  let n = 24 in
  let g = Graph_gen.random_connected (Prng.create 5) ~n ~extra_edges:12 in
  let t2 = Table.create ~header:[ "tree"; "depth"; "interactions"; "stderr" ] in
  List.iter
    (fun (label, choice) ->
      let algo = Doda_core.Tree_aggregation.make ~tree:choice () in
      let tree =
        match choice with
        | Doda_core.Tree_aggregation.Bfs -> Doda_graph.Spanning_tree.bfs_tree g ~root:0
        | Doda_core.Tree_aggregation.Kruskal ->
            Doda_graph.Spanning_tree.kruskal_tree g ~root:0
      in
      let depth =
        List.fold_left
          (fun acc v -> Stdlib.max acc (Doda_graph.Spanning_tree.depth tree v))
          0
          (List.init n (fun v -> v))
      in
      let samples =
        durations
          (replicate ~replications ~seed:master_seed (fun rng ->
               let sched =
                 Schedule.of_fun ~n ~sink:0 (Generators.over_graph rng g)
               in
               let k = Knowledge.with_underlying g Knowledge.empty in
               Engine.run ~record:`Count ~knowledge:k ~max_steps:(2000 * n) algo sched))
      in
      let m, se = mean_stderr samples in
      Table.add_row t2 [ label; string_of_int depth; fmt m; fmt se ])
    [ ("bfs", Doda_core.Tree_aggregation.Bfs);
      ("kruskal", Doda_core.Tree_aggregation.Kruskal) ];
  print_table t2

(* ------------------------------------------------------------------ *)
(* SPITE — the generalised trap adversary at arbitrary n.              *)

let spite () =
  header "SPITE | generalised adaptive trap adversary (extension of Thm 1)"
    "The spiteful adversary freezes the run after the first committed\n\
     transmission; the cost lower bound keeps growing with the horizon\n\
     at every n — the 3-node impossibility is not a small-n artifact.";
  let t =
    Table.create
      ~header:[ "n"; "algorithm"; "horizon"; "terminated"; "convergecasts possible" ]
  in
  (* As in E8: one duel per (n, algorithm) at the largest horizon; the
     spiteful adversary and both algorithms are deterministic, so each
     shorter horizon is read off the shared played trace. *)
  let horizons = [ 2000; 8000 ] in
  let h_max = List.fold_left Stdlib.max 0 horizons in
  List.iter
    (fun n ->
      List.iter
        (fun algo ->
          let adv = Doda_adversary.Spiteful.adversary ~n ~sink:0 in
          let r, played = Duel.run ~max_steps:h_max ~n ~sink:0 algo adv in
          List.iter
            (fun horizon ->
              let terminated =
                match r.Engine.duration with
                | Some d -> d < horizon
                | None -> false
              in
              let possible =
                Cost.convergecasts_within ~n ~sink:0 played ~upto:(horizon - 1)
              in
              Table.add_row t
                [
                  string_of_int n; algo.Doda_core.Algorithm.name;
                  string_of_int horizon;
                  (if terminated then "yes" else "no");
                  string_of_int possible;
                ])
            horizons)
        [ Algorithms.waiting; Algorithms.gathering ])
    [ 4; 8; 16 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* POLICIES — Theorem 11 made falsifiable: rival meetTime policies.    *)

let policies () =
  header "POLICIES | rivals over the same meetTime oracle (Theorem 11)"
    "No policy built on meetTime should beat the tuned Waiting Greedy.\n\
     pure-greedy always fires (ordering by meet time); sliding-window\n\
     uses a relative deadline theta instead of WG's absolute tau.";
  let t =
    Table.create ~header:[ "policy"; "n=64"; "n=128" ]
  in
  let rivals =
    [
      ("waiting-greedy (tuned)", fun n -> Algorithms.waiting_greedy_recommended n);
      ("waiting-greedy tau/4",
       fun n -> Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n / 4));
      ("waiting-greedy 4tau",
       fun n -> Algorithms.waiting_greedy ~tau:(4 * Theory.recommended_tau n));
      ("pure-greedy",
       fun n -> Doda_core.Meet_time_policies.pure_greedy ~horizon:(100 * n * n));
      ("sliding-window theta=tau",
       fun n ->
         Doda_core.Meet_time_policies.sliding_window
           ~theta:(Theory.recommended_tau n));
      ("sliding-window theta=tau/4",
       fun n ->
         Doda_core.Meet_time_policies.sliding_window
           ~theta:(Theory.recommended_tau n / 4));
      ("gathering (no oracle)", fun _ -> Algorithms.gathering);
    ]
  in
  (* All seven rivals share one lazy schedule per replication (the
     schedule stays live, not frozen: pure-greedy probes the oracle up
     to 100 n^2 and sliding-window past the current time, so the needed
     prefix length is policy-dependent). A lazy schedule's content at
     any index is fixed by the seed alone, so the durations match the
     old one-schedule-per-policy sweep exactly. *)
  let columns =
    List.map
      (fun n ->
        shared_sweep
          ~max_steps:((200 * n * n) + 10_000)
          (fun rng -> Randomized.uniform_schedule rng ~n ~sink:0)
          (List.map (fun (_, policy_of) -> policy_of n) rivals)
        |> List.map (fun samples ->
               if Array.length samples < replications then "timeout"
               else fmt (Descriptive.mean samples)))
      [ 64; 128 ]
  in
  List.iteri
    (fun i (label, _) ->
      Table.add_row t (label :: List.map (fun col -> List.nth col i) columns))
    rivals;
  print_table t

(* ------------------------------------------------------------------ *)
(* PRICE — what does the transmit-once constraint cost?                *)

let price () =
  header "PRICE | the cost of transmitting only once"
    "Same uniform schedules; epidemic flooding (unbounded\n\
     retransmission, knowledge-free) vs the transmit-once algorithms.\n\
     Flooding tracks the offline optimum at Theta(n log n); the best\n\
     knowledge-free transmit-once algorithm pays Theta(n^2): the\n\
     energy constraint costs a factor ~ n / log n.";
  let t =
    Table.create
      ~header:
        [ "n"; "flooding"; "optimal (1-shot)"; "gathering (1-shot)"; "gather/flood" ]
  in
  List.iter
    (fun n ->
      let triples =
        replicate ~replications ~seed:master_seed (fun rng ->
            let len = 60 * n * (1 + int_of_float (log (float_of_int n))) in
            let s = Generators.uniform_sequence rng ~n ~length:len in
            let flood =
              Doda_core.Flooding_aggregation.sink_completion ~n ~sink:0 s
            in
            let opt = Convergecast.opt ~n ~sink:0 s 0 in
            let sched = Schedule.of_sequence ~n ~sink:0 s in
            let gather =
              (Engine.run ~record:`Count ~max_steps:(400 * n * n) Algorithms.gathering
                 (Randomized.uniform_schedule
                    (Prng.split rng) ~n ~sink:0))
                .Engine.duration
            in
            ignore sched;
            (flood, opt, gather))
      in
      let extract f =
        Array.of_list
          (List.filter_map
             (fun x -> Option.map (fun v -> float_of_int (v + 1)) (f x))
             (Array.to_list triples))
      in
      let fl = Descriptive.mean (extract (fun (a, _, _) -> a)) in
      let op = Descriptive.mean (extract (fun (_, b, _) -> b)) in
      let ga = Descriptive.mean (extract (fun (_, _, c) -> c)) in
      Table.add_row t
        [ string_of_int n; fmt fl; fmt op; fmt ga; ratio (ga /. fl) ])
    sweep_ns;
  print_table t

(* ------------------------------------------------------------------ *)
(* MIXED — how much adaptivity does the adversary need?                *)

let mixed () =
  header "MIXED | interpolating adversary power (n = 16, horizon 60000)"
    "With probability q the adversary plays the spiteful (adaptive)\n\
     rule, otherwise a uniform random pair. q = 0 is the randomized\n\
     adversary; q = 1 is the Theorem-1-style trap. Mean interactions\n\
     over terminated runs; 'done' counts runs finishing within the\n\
     horizon.";
  let n = 16 in
  let horizon = 60_000 in
  let t =
    Table.create
      ~header:[ "q"; "waiting mean"; "done"; "gathering mean"; "done" ]
  in
  List.iter
    (fun q ->
      let measure algo =
        let outcomes =
          Array.map
            (fun ((r : Engine.result), _) -> r.Engine.duration)
            (Experiment.replicate_duels ~pool:(Lazy.force pool) ~replications
               ~seed:master_seed ~max_steps:horizon ~n ~sink:0 algo
               (fun rng -> Doda_adversary.Mixed.adversary rng ~n ~sink:0 ~q))
        in
        let finished = Array.to_list outcomes |> List.filter_map Fun.id in
        let mean =
          match finished with
          | [] -> "-"
          | _ ->
              fmt
                (Descriptive.mean
                   (Array.of_list (List.map (fun d -> float_of_int (d + 1)) finished)))
        in
        (mean, Printf.sprintf "%d/%d" (List.length finished) replications)
      in
      let wm, wd = measure Algorithms.waiting in
      let gm, gd = measure Algorithms.gathering in
      Table.add_row t [ ratio q; wm; wd; gm; gd ])
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ];
  print_table t

(* ------------------------------------------------------------------ *)
(* GEN — workload-generator throughput.                                *)

let gen () =
  header "GEN | workload-generator throughput"
    "Draws per second, single domain. uniform is the i.i.d. pair draw\n\
     behind every default run and sweep. markov-event rides the timing\n\
     wheel (O(active + toggles) per step), markov-dense is the O(n^2)\n\
     Bernoulli-sweep reference it replaces (same distribution, not the\n\
     same draw stream). waypoint switches from an all-pairs scan to\n\
     the spatial hash when n >= 64 and the grid is at least 6x6\n\
     (radius below ~1/6) — the r=0.05 rows take the hash, the r=0.20\n\
     rows the scan. grid-walk buckets walkers by cell. CI enforces\n\
     draws/s floors on three n=128 rows. Timing columns are machine-\n\
     dependent, so this table is not a byte-identical CSV baseline.";
  let t = Table.create ~header:[ "generator"; "draws"; "wall s"; "draws/s" ] in
  let time_gen label draws mk =
    let g = mk (Prng.create master_seed) in
    ignore (g 0);  (* setup + first draw outside the clock *)
    let t0 = Unix.gettimeofday () in
    for i = 1 to draws do
      ignore (g i)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    Table.add_row t
      [
        label;
        string_of_int draws;
        Printf.sprintf "%.3f" wall;
        Printf.sprintf "%.0f" (float_of_int draws /. wall);
      ]
  in
  List.iter
    (fun n ->
      time_gen
        (Printf.sprintf "uniform n=%d" n)
        1_000_000
        (fun rng -> Generators.uniform rng ~n);
      time_gen
        (Printf.sprintf "markov-event n=%d" n)
        200_000
        (fun rng -> Generators.markov_edges rng ~n ~p_on:0.01 ~p_off:0.2);
      time_gen
        (Printf.sprintf "markov-dense n=%d" n)
        (if n >= 128 then 5_000 else 50_000)
        (fun rng -> Generators.markov_edges_dense rng ~n ~p_on:0.01 ~p_off:0.2);
      time_gen
        (Printf.sprintf "waypoint n=%d r=0.20" n)
        (if n >= 128 then 50_000 else 100_000)
        (fun rng -> Mobility.random_waypoint rng ~n);
      time_gen
        (Printf.sprintf "waypoint n=%d r=0.05" n)
        (if n >= 128 then 50_000 else 100_000)
        (fun rng ->
          Mobility.random_waypoint
            ~params:{ Mobility.default_waypoint with Mobility.radius = 0.05 }
            rng ~n);
      let side = 1 + int_of_float (sqrt (float_of_int n)) in
      time_gen
        (Printf.sprintf "grid-walk n=%d %dx%d" n side side)
        100_000
        (fun rng -> Mobility.grid_walkers rng ~n ~rows:side ~cols:side))
    [ 32; 128 ];
  (* Timing columns are machine-dependent: archived to JSON, not as a
     CSV baseline (CI checks floors on the printed table instead). *)
  print_table ~csv:false t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the machinery itself.                  *)

let micro () =
  header "MICRO | Bechamel micro-benchmarks"
    "Wall-clock per operation (OLS estimate on the run predictor).";
  let open Bechamel in
  let n = 128 in
  let rng = Prng.create master_seed in
  let seq50k = Generators.uniform_sequence rng ~n ~length:50_000 in
  let sched = Schedule.of_sequence ~n ~sink:0 seq50k in
  (* Index every sink meeting once so the query bench measures
     lookups, not construction. *)
  ignore (Schedule.meets_with_sink_upto sched 50_000);
  let prng_rng = Prng.create 1 in
  let tests =
    [
      Test.make ~name:"prng/pair-n128"
        (Staged.stage (fun () -> ignore (Prng.pair prng_rng 128)));
      Test.make ~name:"schedule/meet-time-query"
        (Staged.stage (fun () ->
             ignore
               (Schedule.next_meet_with_sink sched ~node:17 ~after:25_000
                  ~limit:49_999)));
      (* Generator kernels: one spatial-hash contact collection over
         random positions, and one draw of each event-driven
         generator (closures pre-built, so steady-state cost). *)
      (let plane = Gen_kernel.Plane.create ~n ~radius:0.2 in
       let px = Array.init n (fun _ -> Prng.float prng_rng 1.0) in
       let py = Array.init n (fun _ -> Prng.float prng_rng 1.0) in
       let buf = Array.make (n * (n - 1) / 2) 0 in
       Test.make ~name:"kernel/plane-collect-n128"
         (Staged.stage (fun () ->
              ignore (Gen_kernel.Plane.collect plane ~x:px ~y:py buf))));
      (let g = Generators.markov_edges (Prng.create 5) ~n ~p_on:0.01 ~p_off:0.2 in
       let t = ref 0 in
       Test.make ~name:"gen/markov-event-n128-draw"
         (Staged.stage (fun () ->
              incr t;
              ignore (g !t))));
      (let g =
         Mobility.random_waypoint
           ~params:{ Mobility.default_waypoint with Mobility.radius = 0.05 }
           (Prng.create 6) ~n
       in
       let t = ref 0 in
       Test.make ~name:"gen/waypoint-n128-r05-draw"
         (Staged.stage (fun () ->
              incr t;
              ignore (g !t))));
      Test.make ~name:"temporal/flood-50k"
        (Staged.stage (fun () ->
             ignore (Temporal.broadcast_completion ~n ~src:0 seq50k)));
      Test.make ~name:"convergecast/opt-50k"
        (Staged.stage (fun () -> ignore (Convergecast.opt ~n ~sink:0 seq50k 0)));
      Test.make ~name:"engine/gathering-n128-run"
        (Staged.stage (fun () ->
             let rng = Prng.create 77 in
             let sched = Randomized.uniform_schedule rng ~n ~sink:0 in
             ignore (Engine.run ~record:`Count ~max_steps:(40 * n * n) Algorithms.gathering sched)));
      (* Telemetry primitives: an enabled counter increment is a load,
         add, store; a disabled one is a single predictable branch.
         Both must stay within noise of the other sub-ns-scale rows
         here for inline instrumentation to be viable on hot paths. *)
      (let reg = Obs_metrics.create () in
       let c = Obs_metrics.counter reg "bench.counter" in
       Test.make ~name:"obs/counter-incr-enabled"
         (Staged.stage (fun () -> Obs_metrics.incr c)));
      (let c = Obs_metrics.counter Obs_metrics.disabled "bench.counter" in
       Test.make ~name:"obs/counter-incr-disabled"
         (Staged.stage (fun () -> Obs_metrics.incr c)));
      (let reg = Obs_metrics.create () in
       let h = Obs_metrics.histogram reg "bench.histogram" in
       let v = ref 0 in
       Test.make ~name:"obs/histogram-observe-enabled"
         (Staged.stage (fun () ->
              incr v;
              Obs_metrics.observe h !v)));
      Test.make ~name:"obs/with-span-disabled"
        (Staged.stage (fun () -> Obs_span.with_span Obs_span.null "x" Fun.id));
      (* Recording overhead of the run-core: count-only vs the flat SoA
         log vs the seed's boxed list, the latter emulated through an
         [on_transmit] observer consing exactly what the old engine
         allocated per event. Same frozen schedule for all three. *)
      Test.make ~name:"record/count-only"
        (Staged.stage (fun () ->
             ignore (Engine.run ~record:`Count Algorithms.gathering sched)));
      Test.make ~name:"record/flat-log"
        (Staged.stage (fun () ->
             ignore (Engine.run ~record:`All Algorithms.gathering sched)));
      Test.make ~name:"record/old-list"
        (Staged.stage (fun () ->
             let log = ref [] in
             let obs =
               Engine.observer
                 ~on_transmit:(fun ~time ~sender ~receiver ->
                   log := { Engine.time; sender; receiver } :: !log)
                 ()
             in
             ignore
               (Engine.run ~record:`Count ~observers:[ obs ]
                  Algorithms.gathering sched)));
    ]
  in
  (* No per-sample [Gc.compact]: on OCaml 5.1 every forced major cycle
     runs the GC's work counter ahead of allocation, and after a few
     hundred of them the major GC stops collecting until allocation
     catches up, so a later allocation-heavy experiment in the same
     process (streambatch) grows without bound. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.5) ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          let time =
            match Analyze.OLS.estimates est with
            | Some [ t ] -> t
            | _ -> Float.nan
          in
          let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square est) in
          Printf.printf "%-36s %14.1f ns/run  (r2=%.4f)\n" name time r2)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* BATCH — bit-parallel lockstep replications vs the scalar engine.    *)

(* Speedups measured by the batch experiment, archived at the top
   level of BENCH_results.json (schema 3) so the trajectory of the
   lockstep engine is machine-readable across PRs. *)
let batch_speedups : (string * float) list ref = ref []

let batch () =
  header "BATCH | bit-parallel lockstep replications vs scalar engine"
    "One frozen uniform schedule (n = 64); R replications of a coin\n\
     algorithm, each drawing from its own Experiment.split_seeds stream.\n\
     scalar = R independent Engine.run, batch = one Batch_engine.run_reps\n\
     lockstep pass (63 replications per word). Only the coin rules have\n\
     lanes: a deterministic algorithm's replications over one schedule\n\
     are one run, which run_reps executes once. steps/decode is the\n\
     decode amortisation observed by the batch; reps/s is batch\n\
     replication throughput.";
  let open Bechamel in
  let n = 64 in
  let rng = Prng.create master_seed in
  let sched =
    Schedule.freeze
      (Schedule.of_sequence ~n ~sink:0
         (Generators.uniform_sequence rng ~n ~length:(40 * n * n)))
  in
  (* Unstabilised for the reason given in [micro]. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let measure f =
    let test = Test.make ~name:"b" (Staged.stage f) in
    let results = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
    let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
    let out = ref Float.nan in
    Hashtbl.iter
      (fun _ est ->
        match Analyze.OLS.estimates est with
        | Some [ t ] -> out := t
        | _ -> ())
      analyzed;
    !out
  in
  let t =
    Table.create
      ~header:
        [ "algorithm"; "R"; "scalar ns/rep"; "batch ns/rep"; "speedup";
          "steps/decode"; "reps/s" ]
  in
  batch_speedups := [];
  List.iter
    (fun (algo : Doda_core.Algorithm.t) ->
      let label = algo.name in
      List.iter
        (fun r ->
          let scalar_ns =
            measure (fun () ->
                for _ = 1 to r do
                  ignore (Engine.run ~record:`Count algo sched)
                done)
            /. float_of_int r
          in
          let reps ?stats () =
            let rngs =
              Experiment.split_seeds ~replications:r ~seed:master_seed
            in
            Batch_engine.run_reps ~record:`Count ~rngs ?stats algo sched r
          in
          let batch_ns = measure (fun () -> ignore (reps ())) /. float_of_int r in
          let stats = Batch_engine.stats () in
          ignore (reps ~stats ());
          let amortisation =
            float_of_int stats.lane_steps /. float_of_int stats.decodes
          in
          let speedup = scalar_ns /. batch_ns in
          batch_speedups :=
            (Printf.sprintf "%s-r%d" label r, speedup) :: !batch_speedups;
          Table.add_row t
            [
              label; string_of_int r; fmt scalar_ns; fmt batch_ns;
              ratio speedup; fmt amortisation; fmt (1e9 /. batch_ns);
            ])
        [ 1; 16; 64; 256 ])
    [
      Doda_core.Coin_algorithms.coin_waiting (Prng.create master_seed) ~p:0.5;
      Doda_core.Coin_algorithms.coin_gathering (Prng.create master_seed) ~p:0.3;
    ];
  batch_speedups := List.rev !batch_speedups;
  (* Timing columns cannot serve as byte-identical CSV baselines. *)
  print_table ~csv:false ~name:"batch" t

(* ------------------------------------------------------------------ *)
(* STREAMBATCH — the streamed batched sweep: R lockstep lanes over ONE
   chunked class-constrained schedule vs R scalar streamed passes.     *)

(* Schema 6: streamed-batch-vs-scalar-streamed speedups, archived at
   the top level of BENCH_results.json ([{}] when it did not run). *)
let stream_batch_speedup : (string * float) list ref = ref []

let streambatch () =
  header
    "STREAMBATCH | lockstep lanes over one streamed class-constrained schedule"
    "n = 1e5 bounded-recurrent trace (adversary replay: every lane sees\n\
     the same schedule), coin gathering with one Experiment.split_seeds\n\
     stream per replication (a deterministic algorithm would be one run\n\
     repeated R times). scalar = R independent streamed Engine.run\n\
     passes, each decoding its own chunk stream; batch = ONE\n\
     Batch_engine.run_reps pass over a single chunked schedule with a\n\
     pipelined producer domain double-buffering the next block\n\
     (Pool.pipeline). Memory stays O(block) on both paths; the batch\n\
     decodes the trace once instead of R times. refills counts\n\
     installed blocks (deterministic at any job count), prefetched the\n\
     blocks the producer had ready. Timing columns are machine-\n\
     dependent, so this table is not a byte-identical CSV baseline.";
  let n = 100_000 in
  let len = 1 lsl 20 in
  let bound = 2 * (n - 1) in
  let mk () =
    Schedule.of_fun_chunked ~length:len ~n ~sink:0
      (Tvg_class.gen_bounded_recurrent (Prng.create master_seed) ~n ~bound)
  in
  let t =
    Table.create
      ~header:
        [ "algorithm"; "R"; "scalar s/rep"; "batch s/rep"; "speedup";
          "reps/s"; "refills"; "prefetched" ]
  in
  stream_batch_speedup := [];
  let algo =
    Doda_core.Coin_algorithms.coin_gathering (Prng.create master_seed) ~p:0.3
  in
  let label = algo.Doda_core.Algorithm.name in
  List.iter
    (fun r ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to r do
        ignore (Engine.run ~record:`Count algo (mk ()))
      done;
      let scalar = (Unix.gettimeofday () -. t0) /. float_of_int r in
      let sched = mk () in
      Pool.pipeline (Lazy.force pool) sched;
      let t0 = Unix.gettimeofday () in
      let rngs = Experiment.split_seeds ~replications:r ~seed:master_seed in
      ignore (Batch_engine.run_reps ~record:`Count ~rngs algo sched r);
      let batch = (Unix.gettimeofday () -. t0) /. float_of_int r in
      let stats = Schedule.chunk_stats sched in
      let speedup = scalar /. batch in
      stream_batch_speedup :=
        !stream_batch_speedup @ [ (Printf.sprintf "%s-r%d" label r, speedup) ];
      Table.add_row t
        [
          label; string_of_int r; fmt scalar; fmt batch; ratio speedup;
          fmt (1.0 /. batch);
          string_of_int stats.Schedule.refills;
          string_of_int stats.Schedule.prefetched;
        ])
    [ 64; 256 ];
  print_table ~csv:false ~name:"streambatch" t

(* ------------------------------------------------------------------ *)
(* SCALE — run-core scaling on chunked schedules: time and memory vs n
   on log–log axes, with fitted exponents.                             *)

(* Fitted log–log exponents from the SCALE experiment, archived at the
   top level of BENCH_results.json (schema 4); [[]] when it did not
   run or had fewer than two points. *)
let scale_fits : (string * float) list ref = ref []

let scale () =
  header "SCALE | run-core scaling: chunked Gathering sweeps up to n = 1e5"
    "Gathering under the uniform adversary on chunked (streaming)\n\
     schedules: the run holds one recycled block, not the O(n^2)\n\
     materialised interaction prefix, so the sweep reaches n where a\n\
     lazy schedule would exhaust memory. The duration table is a\n\
     deterministic baseline; wall-clock and memory are machine-\n\
     dependent, so the perf table skips the CSV mirror. rss is\n\
     process-wide (all domains), heap is the main domain's major\n\
     heap. Override points with DODA_SCALE_NS=n1,n2,... and the\n\
     per-point replication count with DODA_SCALE_REPS=r (CI smoke\n\
     uses small values; the committed baseline uses the defaults).";
  let ns =
    match Sys.getenv_opt "DODA_SCALE_NS" with
    | None | Some "" -> [ 1_000; 10_000; 100_000 ]
    | Some s ->
        List.map
          (fun x ->
            match int_of_string_opt (String.trim x) with
            | Some n when n >= 2 -> n
            | _ ->
                Printf.eprintf "DODA_SCALE_NS: bad entry %S\n" x;
                exit 1)
          (String.split_on_char ',' s)
  in
  let reps_override =
    match Sys.getenv_opt "DODA_SCALE_REPS" with
    | None | Some "" -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some r when r >= 1 -> Some r
        | _ ->
            Printf.eprintf "DODA_SCALE_REPS: bad value %S\n" s;
            exit 1)
  in
  (* Expected duration is ~n^2 interactions at ~1e7 steps/s, so
     replications thin out as n grows: the n = 1e5 point is a single
     ~1e10-step run. *)
  let reps_for n =
    match reps_override with
    | Some r -> r
    | None -> if n >= 100_000 then 1 else if n >= 10_000 then 2 else 3
  in
  let t =
    Table.create
      ~header:[ "n"; "reps"; "interactions"; "stderr"; "n(n-1)(1-1/n)"; "ratio" ]
  in
  let tp =
    Table.create
      ~header:[ "n"; "reps"; "wall s/rep"; "steps/s"; "rss MB"; "heap Mw" ]
  in
  let dur_points = ref [] and wall_points = ref [] and rss_points = ref [] in
  List.iter
    (fun n ->
      let reps = reps_for n in
      let t0 = Unix.gettimeofday () in
      let results =
        replicate ~replications:reps ~seed:master_seed (fun rng ->
            let sched =
              Schedule.of_fun_chunked ~n ~sink:0 (Generators.uniform rng ~n)
            in
            Engine.run ~record:`Count
              ~max_steps:((10 * n * n) + 10_000)
              Algorithms.gathering sched)
      in
      let wall = Unix.gettimeofday () -. t0 in
      let samples = durations results in
      let m, se = mean_stderr samples in
      let predicted = Theory.expected_gathering n in
      Table.add_row t
        [
          string_of_int n; string_of_int reps; fmt m; fmt se; fmt predicted;
          ratio (m /. predicted);
        ];
      let total_steps = Array.fold_left ( +. ) 0.0 samples in
      let wall_per_rep = wall /. float_of_int reps in
      let rss = Doda_obs.Resource.rss_bytes () in
      let heap = Doda_obs.Resource.heap_words () in
      Table.add_row tp
        [
          string_of_int n; string_of_int reps; fmt wall_per_rep;
          Printf.sprintf "%.3g" (total_steps /. wall);
          (match rss with
          | Some b -> fmt (float_of_int b /. 1e6)
          | None -> "-");
          fmt (float_of_int heap /. 1e6);
        ];
      let success =
        float_of_int (Array.length samples) /. float_of_int reps
      in
      let point mean = { Scaling.n; mean; std_error = 0.0; success } in
      dur_points := point m :: !dur_points;
      wall_points := point wall_per_rep :: !wall_points;
      Option.iter
        (fun b -> rss_points := point (float_of_int b) :: !rss_points)
        rss)
    ns;
  print_table ~name:"scale" t;
  print_table ~csv:false ~name:"scale_perf" tp;
  scale_fits := [];
  let fit label points =
    let points = List.rev points in
    if List.length points >= 2 then begin
      let f = Scaling.exponent points in
      scale_fits :=
        !scale_fits @ [ (label ^ "_slope", f.slope); (label ^ "_r2", f.r2) ];
      Printf.printf "log-log %s exponent: %.3f (r2=%.4f)\n" label f.slope f.r2
    end
  in
  fit "interactions" !dur_points;
  fit "wall" !wall_points;
  (* The point of the chunked run-core: this one stays near zero. *)
  fit "rss" !rss_points

(* ------------------------------------------------------------------ *)
(* CLASSES — the cross table: algorithm x TVG class.                   *)

(* Schema 5: per-cell completion ratios (finished / replications) from
   the CLASSES experiment, archived at the top level of
   BENCH_results.json ([{}] when it did not run). *)
let classes_done : (string * float) list ref = ref []

let classes () =
  header "CLASSES | algorithm x TVG class (n = 32, horizon 120000)"
    "Each row draws schedules from a class-constrained generator\n\
     (lib/dynamic/tvg_class.ml); the round-trip suite proves every\n\
     generator a certified member of its own class. Aggregation\n\
     columns are mean interactions to full aggregation over finished\n\
     runs, the gossip column is k = n all-to-all dissemination, and\n\
     'done' counts runs finishing within the horizon. The same seeds\n\
     build the same schedules across a row, so columns are paired.\n\
     bounded-recurrent schedules draw spanning-tree edges only, so\n\
     aggregation can strand two non-adjacent token holders forever\n\
     while gossip still covers -- that contrast is the point.";
  let n = 32 in
  let horizon = 120_000 in
  let tau = Theory.recommended_tau n in
  let schedule_of cls rng =
    match cls with
    | `Uniform -> Randomized.uniform_schedule rng ~n ~sink:0
    | `T_interval w ->
        Schedule.of_fun ~n ~sink:0 (Tvg_class.gen_t_interval rng ~n ~window:w)
    | `Bounded b ->
        Schedule.of_fun ~n ~sink:0
          (Tvg_class.gen_bounded_recurrent rng ~n ~bound:b)
  in
  (* [durations]: per-replication completion times, [None] when the
     run hit the horizon. *)
  let summarize label durations =
    let finished = List.filter_map Fun.id (Array.to_list durations) in
    classes_done :=
      !classes_done
      @ [
          ( label,
            float_of_int (List.length finished)
            /. float_of_int replications );
        ];
    let mean =
      match finished with
      | [] -> "-"
      | _ ->
          fmt
            (Descriptive.mean
               (Array.of_list
                  (List.map (fun d -> float_of_int (d + 1)) finished)))
    in
    (mean, Printf.sprintf "%d/%d" (List.length finished) replications)
  in
  let t =
    Table.create
      ~header:
        [
          "class"; "waiting"; "done"; "gathering"; "done";
          Printf.sprintf "w-greedy:%d" tau; "done"; "gossip k=n"; "done";
        ]
  in
  List.iter
    (fun (label, cls) ->
      let agg name algo =
        summarize
          (name ^ "@" ^ label)
          (Array.map
             (fun (r : Engine.result) -> r.Engine.duration)
             (replicate ~replications ~seed:master_seed (fun rng ->
                  Engine.run ~record:`Count ~max_steps:horizon algo
                    (schedule_of cls rng))))
      in
      let wm, wd = agg "waiting" Algorithms.waiting in
      let gm, gd = agg "gathering" Algorithms.gathering in
      let wgm, wgd = agg "waiting-greedy" (Algorithms.waiting_greedy ~tau) in
      let problem = Problem.dissemination ~k:n in
      let gom, god =
        summarize ("gossip@" ^ label)
          (Array.map
             (fun (r : Gossip.result) -> r.Gossip.duration)
             (replicate ~replications ~seed:master_seed (fun rng ->
                  Gossip.run ~record:`Count ~max_steps:horizon ~problem
                    (schedule_of cls rng))))
      in
      Table.add_row t [ label; wm; wd; gm; gd; wgm; wgd; gom; god ])
    [
      ("uniform", `Uniform);
      ("t-interval:31", `T_interval 31);
      ("t-interval:128", `T_interval 128);
      ("bounded-recurrent:62", `Bounded 62);
    ];
  print_table ~name:"classes" t

(* ------------------------------------------------------------------ *)
(* SERVE — load test of the service layer (lib/serve): hundreds of
   small jobs from concurrent clients through the admission queue,
   with every reply checked against a direct engine call.             *)

module Server = Doda_serve.Server
module Serve_client = Doda_serve.Client
module Serve_protocol = Doda_serve.Protocol
module Workload = Doda_sim.Workload
module Instrument = Doda_obs.Instrument
module Histogram = Doda_stats.Histogram

(* Schema 7: client-observed latency percentiles (milliseconds) and
   throughput from the SERVE load experiment, archived at the top
   level of BENCH_results.json ([{}] when it did not run). *)
let serve_load : (string * float) list ref = ref []

(* Trend series: one timestamped JSON per run plus a [serve-latest.json]
   alias, under DODA_BENCH_SERVE (default [bench-serve-results],
   Scratch-resolved; empty value disables). The directory is
   gitignored — latency trends belong to the machine that measured
   them; only the schema-7 summary inside BENCH_results.json is
   committed. *)
let serve_trend_dir =
  match Sys.getenv_opt "DODA_BENCH_SERVE" with
  | Some "" -> None
  | Some d -> Some (Doda_sim.Scratch.resolve d)
  | None -> Some (Doda_sim.Scratch.resolve "bench-serve-results")

let serve () =
  header "SERVE | service-layer load: 8 clients x 64 run jobs"
    "An in-process doda serve on a unix socket; 8 client threads each\n\
     submit 64 single-run jobs (gathering, n = 8, distinct seeds) and\n\
     check every reply against a direct Engine.run with the same seed\n\
     -- zero lost, duplicated or divergent results is part of the\n\
     measurement, not an assumption. Latencies are client-observed\n\
     request-to-result round trips; p50/p95/p99 interpolate inside a\n\
     64-bin Stats.Histogram, while the queue-wait and execute columns\n\
     are exact means from the server's own telemetry.";
  let clients = 8 and per_client = 64 in
  let total = clients * per_client in
  let n = 8 in
  let tel = Instrument.create () in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "doda-bench-serve-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let srv =
    Server.start
      {
        Server.listen = Server.Unix_path sock;
        jobs = !jobs;
        max_queue = total;
        telemetry = tel;
      }
  in
  let endpoint = Server.endpoint srv in
  let seed_of i = master_seed + (1000 * i) in
  let request i =
    Serve_protocol.Run
      {
        algo = "gathering";
        n;
        sink = 0;
        seed = seed_of i;
        source = "uniform";
        max_steps = None;
        problem = None;
        stream = false;
        upload = None;
      }
  in
  let results : (int * Serve_protocol.response) option array =
    Array.make total None
  in
  let latency_ms = Array.make total 0.0 in
  let errors_mutex = Mutex.create () in
  let errors = ref [] in
  let record_error msg =
    Mutex.lock errors_mutex;
    errors := msg :: !errors;
    Mutex.unlock errors_mutex
  in
  let worker c () =
    for k = 0 to per_client - 1 do
      let i = (c * per_client) + k in
      match Serve_client.connect endpoint with
      | exception e ->
          record_error
            (Printf.sprintf "job %d: connect: %s" i (Printexc.to_string e))
      | cl ->
          let accepted = ref (-1) in
          let t0 = Unix.gettimeofday () in
          let out =
            Serve_client.run_job cl
              ~on_response:(function
                | Serve_protocol.Accepted { job; _ } -> accepted := job
                | _ -> ())
              (request i)
          in
          latency_ms.(i) <- (Unix.gettimeofday () -. t0) *. 1e3;
          Serve_client.close cl;
          (match out with
          | Ok resps ->
              (* run_job guarantees the terminal response is last *)
              results.(i) <-
                Some (!accepted, List.nth resps (List.length resps - 1))
          | Error e -> record_error (Printf.sprintf "job %d: %s" i e))
    done
  in
  let t_start = Unix.gettimeofday () in
  let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t_start in
  Server.initiate_drain srv;
  Server.wait srv;
  let expected i =
    Engine.run ~record:`Count
      ~max_steps:((200 * n * n) + 10_000)
      Algorithms.gathering
      (Workload.schedule Workload.Uniform ~n ~sink:0 ~seed:(seed_of i))
  in
  let ids = Hashtbl.create total in
  let matched = ref 0 in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> record_error (Printf.sprintf "job %d: no result" i)
      | Some (id, resp) -> (
          if Hashtbl.mem ids id then
            record_error (Printf.sprintf "job id %d assigned twice" id);
          Hashtbl.replace ids id ();
          match resp with
          | Serve_protocol.Run_result r ->
              let e = expected i in
              if
                r.stop = Serve_protocol.stop_string e.Engine.stop
                && r.duration = e.Engine.duration
                && r.steps = e.Engine.steps
                && r.transmissions = e.Engine.transmission_count
              then incr matched
              else
                record_error
                  (Printf.sprintf "job %d (seed %d): diverges from direct run"
                     i (seed_of i))
          | _ ->
              record_error
                (Printf.sprintf "job %d: unexpected terminal response" i)))
    results;
  (match !errors with
  | [] -> ()
  | es ->
      List.iter prerr_endline (List.rev es);
      failwith "SERVE load bench lost, duplicated or diverged on jobs");
  let h = Histogram.of_samples ~bins:64 latency_ms in
  let q p = Option.value (Histogram.quantile h p) ~default:Float.nan in
  let p50 = q 0.5 and p95 = q 0.95 and p99 = q 0.99 in
  let m = Doda_obs.Instrument.metrics tel in
  let mean_ms name =
    match Obs_metrics.histogram_mean (Obs_metrics.histogram m name) with
    | Some v -> v /. 1e3
    | None -> Float.nan
  in
  let qwait = mean_ms "serve.queue_wait_us" in
  let exec = mean_ms "serve.execute_us" in
  let throughput = float_of_int total /. wall in
  let t =
    Table.create
      ~header:
        [
          "clients"; "jobs"; "ok"; "p50 ms"; "p95 ms"; "p99 ms";
          "queue-wait ms"; "execute ms"; "wall s"; "jobs/s";
        ]
  in
  Table.add_row t
    [
      string_of_int clients;
      string_of_int total;
      Printf.sprintf "%d/%d" !matched total;
      fmt p50; fmt p95; fmt p99; fmt qwait; fmt exec; fmt wall;
      fmt throughput;
    ];
  print_table ~csv:false ~name:"serve_load" t;
  serve_load :=
    [
      ("clients", float_of_int clients);
      ("jobs", float_of_int total);
      ("ok", float_of_int !matched);
      ("p50_ms", p50);
      ("p95_ms", p95);
      ("p99_ms", p99);
      ("queue_wait_ms", qwait);
      ("execute_ms", exec);
      ("wall_s", wall);
      ("jobs_per_s", throughput);
    ];
  match serve_trend_dir with
  | None -> ()
  | Some dir ->
      let module Json = Doda_sim.Json in
      Doda_sim.Csv.mkdir_p dir;
      let now = int_of_float (Unix.time ()) in
      let payload =
        Json.Obj
          (("experiment", Json.String "serve")
          :: ("timestamp", Json.Int now)
          :: ("pool_jobs", Json.Int !jobs)
          :: List.map (fun (k, v) -> (k, Json.Float v)) !serve_load)
      in
      let stamped =
        Filename.concat dir (Printf.sprintf "serve-%d.json" now)
      in
      Json.write stamped payload;
      Json.write (Filename.concat dir "serve-latest.json") payload;
      Printf.printf "[serve trend written to %s and serve-latest.json]\n"
        stamped

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("lemmas", lemmas); ("knowledge", knowledge); ("latency", latency);
    ("t2search", t2search);
    ("exact", exact);
    ("variants", variants); ("spite", spite); ("mixed", mixed); ("price", price);
    ("policies", policies); ("gen", gen); ("micro", micro);
    ("batch", batch); ("scale", scale); ("classes", classes);
    ("streambatch", streambatch); ("serve", serve);
  ]

(* Machine-readable archive: per-experiment wall clock plus every table
   printed, so future changes have a perf and correctness trajectory to
   compare against. *)
let json_path =
  match Sys.getenv_opt "DODA_BENCH_JSON" with
  | Some "" -> None
  | Some p -> Some (Doda_sim.Scratch.resolve p)
  | None -> Some (Doda_sim.Scratch.resolve "BENCH_results.json")

let write_json path results =
  let module Json = Doda_sim.Json in
  let strings cells = Json.List (List.map (fun c -> Json.String c) cells) in
  let table_json (tname, t) =
    Json.Obj
      [
        ("name", Json.String tname);
        ("header", strings (Table.header_row t));
        ("rows", Json.List (List.map strings (Table.rows t)));
      ]
  in
  let experiments =
    List.map
      (fun (name, wall, tables) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("wall_clock_s", Json.Float wall);
            ("tables", Json.List (List.map table_json tables));
          ])
      results
  in
  (* Suite-level telemetry spans (monotonic clock, microseconds since
     the first suite started): the same events DODA_TRACE exports in
     Chrome trace format, kept here so the archive is self-contained. *)
  let spans =
    List.map
      (fun (e : Obs_span.event) ->
        Json.Obj
          [
            ("name", Json.String e.Obs_span.name);
            ("ts_us", Json.Float (float_of_int e.Obs_span.start_ns /. 1e3));
            ("dur_us", Json.Float (float_of_int e.Obs_span.dur_ns /. 1e3));
          ])
      (Obs_span.events (Lazy.force suite_spans))
  in
  Json.write path
    (Json.Obj
       [
         ("schema", Json.Int 7);
         ("jobs", Json.Int !jobs);
         ("seed", Json.Int master_seed);
         ("replications", Json.Int replications);
         (* Schema 3: batch-vs-scalar speedups from the BATCH
            experiment ([{}] when it did not run). *)
         ( "batch_speedup",
           Json.Obj
             (List.map (fun (k, s) -> (k, Json.Float s)) !batch_speedups) );
         (* Schema 4: fitted log-log exponents from the SCALE
            experiment ([{}] when it did not run). *)
         ( "scale_exponents",
           Json.Obj
             (List.map (fun (k, s) -> (k, Json.Float s)) !scale_fits) );
         (* Schema 5: per-cell completion ratios from the CLASSES
            experiment ([{}] when it did not run). *)
         ( "classes_done",
           Json.Obj
             (List.map (fun (k, s) -> (k, Json.Float s)) !classes_done) );
         (* Schema 6: streamed-batch-vs-scalar-streamed speedups from
            the STREAMBATCH experiment ([{}] when it did not run). *)
         ( "stream_batch_speedup",
           Json.Obj
             (List.map (fun (k, s) -> (k, Json.Float s)) !stream_batch_speedup) );
         (* Schema 7: client-observed latency percentiles and
            throughput from the SERVE load experiment ([{}] when it
            did not run). *)
         ( "serve_load",
           Json.Obj (List.map (fun (k, s) -> (k, Json.Float s)) !serve_load) );
         ("spans", Json.List spans);
         ("experiments", Json.List experiments);
       ]);
  Printf.printf "\n[bench results written to %s]\n" path

let () =
  let set_jobs v =
    match Pool.parse_jobs v with
    | Some j -> jobs := j
    | None ->
        Printf.eprintf "--jobs needs a positive integer, got %S\n" v;
        exit 1
  in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
        set_jobs v;
        parse_args acc rest
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        parse_args acc rest
    | name :: rest -> parse_args (name :: acc) rest
  in
  let named = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match named with [] -> List.map fst all_experiments | names -> names
  in
  let results = ref [] in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) all_experiments with
      | Some run ->
          current_tables := [];
          let t0 = Unix.gettimeofday () in
          Obs_span.with_span (Lazy.force suite_spans) ("bench/" ^ name) run;
          let elapsed = Unix.gettimeofday () -. t0 in
          results := (name, elapsed, List.rev !current_tables) :: !results
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
    requested;
  (match json_path with
  | None -> ()
  | Some path -> write_json path (List.rev !results));
  (match Sys.getenv_opt "DODA_TRACE" with
  | None | Some "" -> ()
  | Some path ->
      Doda_obs.Trace_event.write ~process_name:"doda-bench" path
        (Lazy.force suite_spans);
      Printf.printf "[chrome trace written to %s]\n" path);
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool)
