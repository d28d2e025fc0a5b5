(* Problem-abstraction differentials. The refactor that threaded
   {!Problem} through the engines must leave the aggregation path
   bit-identical (stop, duration, steps, log, holders) on every
   schedule form, scalar and batch; and the gossip run-core's
   bit-plane implementation must match its dense reference on the same
   observables. A tiny independent model interpreter pins the engine
   semantics themselves. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Temporal = Doda_dynamic.Temporal
module Engine = Doda_core.Engine
module Batch_engine = Doda_core.Batch_engine
module Gossip = Doda_core.Gossip
module Problem = Doda_core.Problem
module Run_log = Doda_core.Run_log
module Validate = Doda_core.Validate
module Algorithms = Doda_core.Algorithms
module Knowledge = Doda_core.Knowledge
module Prng = Doda_prng.Prng

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Instances *)

let instance_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun n len seed -> (n, len, seed))
        (int_range 3 12) (int_range 5 400) (int_range 0 1_000_000))
  in
  QCheck.make
    ~print:(fun (n, len, seed) ->
      Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    gen

let sequence_of (n, len, seed) =
  let rng = Prng.create seed in
  let s = Generators.uniform_sequence rng ~n ~length:len in
  (* Callers size n by the largest node id, which a short sequence
     may leave below the instance's n: draw the sink among those. *)
  let sink = Prng.int rng (Sequence.max_node s + 1) in
  (s, sink)

(* ------------------------------------------------------------------ *)
(* Independent model interpreter: Section 2 rules in twenty lines,
   sharing nothing with the engine but the algorithm instances. *)

let reference_run algo ~n ~sink s =
  let knowledge =
    Knowledge.for_schedule
      (Schedule.of_sequence ~n ~sink s)
      algo.Doda_core.Algorithm.requires
  in
  let inst = algo.Doda_core.Algorithm.make ~n ~sink knowledge in
  let holds = Array.make n true in
  let owners = ref n in
  let log = ref [] in
  let steps = ref 0 in
  let len = Sequence.length s in
  while !owners > 1 && !steps < len do
    let t = !steps in
    let i = Sequence.get s t in
    inst.Doda_core.Algorithm.observe ~time:t i;
    let u = Interaction.u i and v = Interaction.v i in
    if holds.(u) && holds.(v) then begin
      match inst.Doda_core.Algorithm.decide ~time:t i with
      | None -> ()
      | Some receiver ->
          let sender = Interaction.other i receiver in
          holds.(sender) <- false;
          decr owners;
          log := { Run_log.time = t; sender; receiver } :: !log
    end;
    incr steps
  done;
  let stop =
    if !owners = 1 then Engine.All_aggregated else Engine.Schedule_exhausted
  in
  let duration =
    match (stop, !log) with
    | Engine.All_aggregated, { Run_log.time; _ } :: _ -> Some time
    | _ -> None
  in
  (stop, duration, !steps, List.rev !log, Array.copy holds)

let engine_algos =
  (* No-knowledge algorithms: runnable on every schedule form,
     including chunked (no meet-time oracle there). *)
  [ Algorithms.waiting; Algorithms.gathering ] @ Doda_core.Gathering_variants.all

let prop_engine_matches_model =
  QCheck.Test.make ~count:80 ~name:"Engine.run = independent model interpreter"
    instance_arb (fun inst ->
      let s, sink = sequence_of inst in
      let n = Sequence.max_node s + 1 in
      let sched = Schedule.of_sequence ~n ~sink s in
      List.for_all
        (fun algo ->
          let stop, duration, steps, log, holders =
            reference_run algo ~n ~sink s
          in
          let r = Engine.run algo sched in
          r.Engine.stop = stop && r.Engine.duration = duration
          && r.Engine.steps = steps
          && Run_log.to_list r.Engine.log = log
          && r.Engine.holders = holders)
        engine_algos)

(* ------------------------------------------------------------------ *)
(* One run, three schedule forms: finite, generator-backed, chunked —
   bit-identical results, scalar and batch. *)

(* A run cut off at the horizon reports [Schedule_exhausted] on a
   finite schedule but [Step_limit] on an unbounded generator-backed
   one — the only legitimate divergence between schedule forms. *)
let equivalent_stop ~len (a : Engine.result) (b : Engine.result) =
  a.Engine.stop = b.Engine.stop
  || a.Engine.steps = len
     && b.Engine.steps = len
     && a.Engine.stop <> Engine.All_aggregated
     && b.Engine.stop <> Engine.All_aggregated

let same_result_h ~len (a : Engine.result) (b : Engine.result) =
  equivalent_stop ~len a b
  && a.Engine.duration = b.Engine.duration
  && a.Engine.steps = b.Engine.steps
  && a.Engine.transmission_count = b.Engine.transmission_count
  && a.Engine.holders = b.Engine.holders
  && Run_log.to_list a.Engine.log = Run_log.to_list b.Engine.log

let same_result a b =
  a.Engine.stop = b.Engine.stop && same_result_h ~len:(-1) a b

let schedule_forms ~n ~sink s =
  let arr = Sequence.to_array s in
  let len = Array.length arr in
  [
    ("live", Schedule.of_sequence ~n ~sink s);
    ("of_fun", Schedule.of_fun ~n ~sink (fun t -> arr.(t)));
    ( "chunked",
      Schedule.of_fun_chunked ~block:16 ~length:len ~n ~sink (fun t -> arr.(t))
    );
  ]

let prop_schedule_forms_identical =
  QCheck.Test.make ~count:60
    ~name:"aggregation bit-identical on live/frozen/of_fun/chunked"
    instance_arb (fun inst ->
      let s, sink = sequence_of inst in
      let n = Sequence.max_node s + 1 in
      let len = Sequence.length s in
      List.for_all
        (fun algo ->
          let base = Engine.run ~max_steps:len algo (Schedule.of_sequence ~n ~sink s) in
          List.for_all
            (fun (_, sched) ->
              same_result_h ~len base (Engine.run ~max_steps:len algo sched))
            (schedule_forms ~n ~sink s))
        engine_algos)

let prop_batch_matches_scalar =
  QCheck.Test.make ~count:40
    ~name:"Batch_engine.run_reps = scalar through the Problem target"
    instance_arb (fun inst ->
      let s, sink = sequence_of inst in
      let n = Sequence.max_node s + 1 in
      let sched = Schedule.of_sequence ~n ~sink s in
      List.for_all
        (fun algo ->
          let scalar = Engine.run algo sched in
          Array.for_all
            (fun b -> same_result scalar b)
            (Batch_engine.run_reps algo sched 3))
        engine_algos)

(* ------------------------------------------------------------------ *)
(* Gossip: bit-plane run vs dense reference, across token counts
   straddling the 63-bit word width, on every schedule form. *)

let same_gossip_h ~len (a : Gossip.result) (b : Gossip.result) =
  (a.Gossip.stop = b.Gossip.stop
  || a.Gossip.steps = len
     && b.Gossip.steps = len
     && a.Gossip.stop <> Engine.All_aggregated
     && b.Gossip.stop <> Engine.All_aggregated)
  && a.Gossip.duration = b.Gossip.duration
  && a.Gossip.steps = b.Gossip.steps
  && a.Gossip.transfer_count = b.Gossip.transfer_count
  && a.Gossip.coverage = b.Gossip.coverage
  && a.Gossip.complete_nodes = b.Gossip.complete_nodes
  && Run_log.to_list a.Gossip.log = Run_log.to_list b.Gossip.log

let same_gossip a b = a.Gossip.stop = b.Gossip.stop && same_gossip_h ~len:(-1) a b

let gossip_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun (n, len, seed) k () -> (n, len, seed, k))
        (triple (int_range 3 12) (int_range 5 400) (int_range 0 1_000_000))
        (oneofl [ 1; 2; 5; 62; 63; 64; 65; 130 ])
        unit)
  in
  QCheck.make
    ~print:(fun (n, len, seed, k) ->
      Printf.sprintf "(n=%d, len=%d, seed=%d, k=%d)" n len seed k)
    gen

let prop_gossip_matches_reference =
  QCheck.Test.make ~count:80
    ~name:"Gossip.run (bit-planes) = Gossip.run_reference (dense)" gossip_arb
    (fun (n, len, seed, k) ->
      let s, sink = sequence_of (n, len, seed) in
      let n = Sequence.max_node s + 1 in
      let problem = Problem.dissemination ~k in
      let len = Sequence.length s in
      let forms = schedule_forms ~n ~sink s in
      let base =
        Gossip.run_reference ~max_steps:len ~problem (List.assoc "live" forms)
      in
      List.for_all
        (fun (_, sched) ->
          same_gossip_h ~len base (Gossip.run ~max_steps:len ~problem sched))
        forms)

let prop_gossip_log_validates =
  QCheck.Test.make ~count:60 ~name:"gossip transfer log passes Validate.problem"
    gossip_arb (fun (n, len, seed, k) ->
      let s, sink = sequence_of (n, len, seed) in
      let n = Sequence.max_node s + 1 in
      let problem = Problem.dissemination ~k in
      let r = Gossip.run ~problem (Schedule.of_sequence ~n ~sink s) in
      let prefix = Sequence.sub s ~pos:0 ~len:r.Gossip.steps in
      Validate.problem problem ~n prefix r.Gossip.log = []
      && Validate.gossip_complete ~n ~problem prefix r.Gossip.log
         = (r.Gossip.stop = Engine.All_aggregated))

(* k = 1: the single token sits at node 0, so gossip is exactly a
   broadcast from node 0 and the duration is the temporal broadcast
   completion time. *)
let prop_gossip_k1_is_broadcast =
  QCheck.Test.make ~count:80 ~name:"gossip k=1 duration = broadcast completion"
    instance_arb (fun inst ->
      let s, sink = sequence_of inst in
      let n = Sequence.max_node s + 1 in
      let problem = Problem.dissemination ~k:1 in
      let r = Gossip.run ~problem (Schedule.of_sequence ~n ~sink s) in
      r.Gossip.duration = Temporal.broadcast_completion ~n ~src:0 s)

(* ------------------------------------------------------------------ *)
(* Observers and analysis on a fixed gossip run. *)

let test_gossip_observers () =
  let s, sink = sequence_of (8, 200, 11) in
  let n = Sequence.max_node s + 1 in
  let problem = Problem.dissemination ~k:8 in
  let steps = ref 0 and transfers = ref 0 and finished = ref 0 in
  let obs =
    Gossip.observer
      ~on_step:(fun ~time:_ _ -> incr steps)
      ~on_transfer:(fun ~time:_ ~sender:_ ~receiver:_ -> incr transfers)
      ~on_finish:(fun _ -> incr finished)
      ()
  in
  let r =
    Gossip.run ~observers:[ obs ] ~problem (Schedule.of_sequence ~n ~sink s)
  in
  Alcotest.(check int) "on_step per interaction" r.Gossip.steps !steps;
  Alcotest.(check int) "on_transfer per transfer" r.Gossip.transfer_count
    !transfers;
  Alcotest.(check int) "on_finish once" 1 !finished;
  (* `Count recording drops the log but changes nothing else. *)
  let counted =
    Gossip.run ~record:`Count ~problem (Schedule.of_sequence ~n ~sink s)
  in
  Alcotest.(check int) "`Count log empty" 0 (Run_log.length counted.Gossip.log);
  Alcotest.(check bool) "`Count same observables" true
    (same_gossip { r with Gossip.log = counted.Gossip.log } counted)

let test_coverage_times () =
  let s, sink = sequence_of (6, 300, 5) in
  let n = Sequence.max_node s + 1 in
  let problem = Problem.dissemination ~k:6 in
  let r = Gossip.run ~problem (Schedule.of_sequence ~n ~sink s) in
  let times = Doda_sim.Analysis.coverage_times ~n ~problem r in
  Alcotest.(check bool) "all nodes timed iff all covered"
    (r.Gossip.complete_nodes = n)
    (Array.for_all (fun t -> t <> None) times);
  (* The last completion equals the run's duration. *)
  let latest =
    Array.fold_left
      (fun acc -> function Some t -> Stdlib.max acc t | None -> acc)
      (-1) times
  in
  (match r.Gossip.duration with
  | Some d -> Alcotest.(check int) "latest completion = duration" d latest
  | None -> ());
  (* k >= 2 and n >= 2: no node can hold all tokens at the start, so
     every completion is a real transfer event. *)
  Array.iter
    (function
      | Some t -> Alcotest.(check bool) "event time" true (t >= 0)
      | None -> ())
    times

(* Coverage analysis under --stream: [coverage_times] replays the
   transfer log, never the schedule prefix, so a run on a chunked
   (streamed) schedule yields the exact completion times of the finite
   run. *)
let test_coverage_times_streamed () =
  let s, sink = sequence_of (7, 400, 9) in
  let n = Sequence.max_node s + 1 in
  let problem = Problem.dissemination ~k:7 in
  let on form =
    Doda_sim.Analysis.coverage_times ~n ~problem
      (Gossip.run ~problem (List.assoc form (schedule_forms ~n ~sink s)))
  in
  let tf = on "live" and tc = on "chunked" in
  Alcotest.(check bool) "finite = streamed coverage times" true (tf = tc);
  Alcotest.(check bool) "some node completes (fixture sanity)" true
    (Array.exists (fun t -> t <> None) tf)

(* ------------------------------------------------------------------ *)
(* Parsing and validation negatives. *)

let test_problem_parse () =
  (match Problem.parse ~sink:3 "aggregation" with
  | Ok (Problem.Aggregation { sink }) -> Alcotest.(check int) "sink" 3 sink
  | _ -> Alcotest.fail "aggregation should parse");
  (match Problem.parse "gossip:7" with
  | Ok (Problem.Dissemination { k }) -> Alcotest.(check int) "k" 7 k
  | _ -> Alcotest.fail "gossip:7 should parse");
  List.iter
    (fun bad ->
      match Problem.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ "gossip:0"; "gossip:-2"; "gossip:"; "gossip"; "census"; "" ];
  List.iter
    (fun p ->
      match Problem.parse (Problem.name p) with
      | Ok q -> Alcotest.(check bool) "name round-trips" true (p = q)
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ Problem.aggregation ~sink:0; Problem.dissemination ~k:12 ]

let test_validate_gossip_negatives () =
  let s, sink = sequence_of (6, 200, 21) in
  let n = Sequence.max_node s + 1 in
  let problem = Problem.dissemination ~k:6 in
  let r = Gossip.run ~problem (Schedule.of_sequence ~n ~sink s) in
  let entries = Run_log.to_list r.Gossip.log in
  Alcotest.(check bool) "run covers (fixture sanity)" true
    (r.Gossip.stop = Engine.All_aggregated);
  let check_flags name log expected =
    let vs = Validate.problem problem ~n s (Run_log.of_list log) in
    Alcotest.(check bool) name true
      (List.exists expected vs)
  in
  (* Replaying a transfer a second time teaches nothing. *)
  let last = List.nth entries (List.length entries - 1) in
  check_flags "duplicate transfer is Uninformative" (entries @ [ last ])
    (function Validate.Uninformative _ -> true | _ -> false);
  (* An entry whose endpoints are not I_t's. *)
  let wrong = { last with Run_log.sender = last.Run_log.receiver } in
  check_flags "self transfer is Wrong_interaction" (entries @ [ wrong ])
    (function Validate.Wrong_interaction _ -> true | _ -> false);
  (* Strictly decreasing time. *)
  (match entries with
  | first :: _ ->
      check_flags "rewound time is Out_of_order" (entries @ [ first ])
        (function Validate.Out_of_order _ -> true | _ -> false)
  | [] -> Alcotest.fail "fixture log empty");
  (* Truncating the log leaves some node uncovered. *)
  let truncated =
    List.filteri (fun i _ -> i < List.length entries - 1) entries
  in
  Alcotest.(check bool) "truncated log is valid but incomplete" true
    (Validate.problem problem ~n s (Run_log.of_list truncated) = []
    && not (Validate.gossip_complete ~n ~problem s (Run_log.of_list truncated)))

let test_problem_accessor_guards () =
  let agg = Problem.aggregation ~sink:0
  and dis = Problem.dissemination ~k:3 in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "tokens on aggregation raises" true
    (raises (fun () -> Problem.tokens agg));
  Alcotest.(check bool) "sink on dissemination raises" true
    (raises (fun () -> Problem.sink dis));
  Alcotest.(check bool) "gossip run on aggregation raises" true
    (raises (fun () ->
         Gossip.run ~problem:agg
           (Schedule.of_sequence ~n:4 ~sink:0 (Sequence.of_pairs [ (0, 1) ]))))

let () =
  Alcotest.run "problem"
    [
      ( "aggregation",
        [
          qtest prop_engine_matches_model;
          qtest prop_schedule_forms_identical;
          qtest prop_batch_matches_scalar;
        ] );
      ( "gossip",
        [
          qtest prop_gossip_matches_reference;
          qtest prop_gossip_log_validates;
          qtest prop_gossip_k1_is_broadcast;
          Alcotest.test_case "observers and `Count" `Quick test_gossip_observers;
          Alcotest.test_case "coverage times" `Quick test_coverage_times;
          Alcotest.test_case "coverage times streamed" `Quick
            test_coverage_times_streamed;
        ] );
      ( "problem",
        [
          Alcotest.test_case "parse" `Quick test_problem_parse;
          Alcotest.test_case "validate negatives" `Quick
            test_validate_gossip_negatives;
          Alcotest.test_case "accessor guards" `Quick
            test_problem_accessor_guards;
        ] );
    ]
