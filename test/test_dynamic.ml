(* Tests for the dynamic-graph model: interactions, sequences,
   schedules (with meetTime index), generators, underlying graphs,
   temporal reachability, mobility, trace I/O. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Underlying = Doda_dynamic.Underlying
module Temporal = Doda_dynamic.Temporal
module Mobility = Doda_dynamic.Mobility
module Trace = Doda_dynamic.Trace
module Vec = Doda_dynamic.Vec
module Static_graph = Doda_graph.Static_graph
module Prng = Doda_prng.Prng

let seq pairs = Sequence.of_pairs pairs

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_basic () =
  let v = Vec.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 50" 50 (Vec.get v 50);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Vec.set v 0 42;
  Alcotest.(check int) "set" 42 (Vec.get v 0);
  Alcotest.(check int) "to_array length" 100 (Array.length (Vec.to_array v));
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_array ~dummy:0 [| 1; 2; 3 |] in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 3))

(* ------------------------------------------------------------------ *)
(* Interaction                                                         *)

let test_interaction_normalised () =
  let i = Interaction.make 5 2 in
  Alcotest.(check int) "u" 2 (Interaction.u i);
  Alcotest.(check int) "v" 5 (Interaction.v i);
  Alcotest.(check bool) "involves 5" true (Interaction.involves i 5);
  Alcotest.(check bool) "involves 3" false (Interaction.involves i 3);
  Alcotest.(check int) "other of 2" 5 (Interaction.other i 2);
  Alcotest.(check bool) "equal" true
    (Interaction.equal (Interaction.make 2 5) (Interaction.make 5 2))

let test_interaction_rejects_self () =
  Alcotest.check_raises "self"
    (Invalid_argument "Interaction.make: self-interaction") (fun () ->
      ignore (Interaction.make 3 3))

let test_interaction_other_rejects_stranger () =
  let i = Interaction.make 1 2 in
  Alcotest.check_raises "stranger"
    (Invalid_argument "Interaction.other: node not an endpoint") (fun () ->
      ignore (Interaction.other i 7))

(* ------------------------------------------------------------------ *)
(* Sequence                                                            *)

let test_sequence_ops () =
  let s = seq [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check int) "length" 3 (Sequence.length s);
  Alcotest.(check bool) "get" true
    (Interaction.equal (Sequence.get s 1) (Interaction.make 1 2));
  Alcotest.(check int) "max node" 2 (Sequence.max_node s);
  Alcotest.(check int) "count involving 1" 2 (Sequence.count_involving s 1);
  let r = Sequence.rev s in
  Alcotest.(check bool) "rev first" true
    (Interaction.equal (Sequence.get r 0) (Interaction.make 0 2));
  let doubled = Sequence.repeat s 2 in
  Alcotest.(check int) "repeat" 6 (Sequence.length doubled);
  let s2 = Sequence.sub s ~pos:1 ~len:2 in
  Alcotest.(check int) "sub" 2 (Sequence.length s2)

let test_sequence_interactions_of () =
  let s = seq [ (0, 1); (1, 2); (0, 2); (1, 2) ] in
  let future = Sequence.interactions_of s 2 in
  Alcotest.(check (list int)) "times for node 2" [ 1; 2; 3 ]
    (List.map fst future)

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)

let test_schedule_finite () =
  let s = Schedule.of_sequence ~n:3 ~sink:0 (seq [ (0, 1); (1, 2) ]) in
  Alcotest.(check (option int)) "length" (Some 2) (Schedule.length s);
  Alcotest.(check bool) "get 0" true
    (Interaction.equal (Option.get (Schedule.get s 0)) (Interaction.make 0 1));
  Alcotest.(check bool) "past end" true (Schedule.get s 2 = None)

let test_schedule_lazy_materialisation () =
  let calls = ref 0 in
  let gen t =
    incr calls;
    Alcotest.(check int) "in order" (!calls - 1) t;
    Interaction.make (t mod 2) 2
  in
  let s = Schedule.of_fun ~n:3 ~sink:0 gen in
  ignore (Schedule.get s 4);
  Alcotest.(check int) "five calls" 5 !calls;
  ignore (Schedule.get s 2);
  Alcotest.(check int) "memoised" 5 !calls;
  Alcotest.(check int) "materialized" 5 (Schedule.materialized s)

let test_schedule_meet_time () =
  (* sink 0; node 2 meets it at 1 and 4; node 1 at 2. *)
  let s =
    Schedule.of_sequence ~n:3 ~sink:0
      (seq [ (1, 2); (0, 2); (0, 1); (1, 2); (0, 2) ])
  in
  let meet node after limit = Schedule.next_meet_with_sink s ~node ~after ~limit in
  Alcotest.(check (option int)) "node2 after -1" (Some 1) (meet 2 (-1) 10);
  Alcotest.(check (option int)) "node2 after 1" (Some 4) (meet 2 1 10);
  Alcotest.(check (option int)) "node2 after 4" None (meet 2 4 10);
  Alcotest.(check (option int)) "node1 after 0" (Some 2) (meet 1 0 10);
  Alcotest.(check (option int)) "capped" None (meet 2 1 3);
  (* The sink's meet time is the identity (clipped by limit). *)
  Alcotest.(check (option int)) "sink" (Some 3) (meet 0 2 10)

let test_schedule_meet_time_matches_scan () =
  let rng = Prng.create 3 in
  let n = 8 in
  let raw = Generators.uniform_sequence rng ~n ~length:2000 in
  let s = Schedule.of_sequence ~n ~sink:0 raw in
  let naive node after limit =
    let rec scan t =
      if t > limit || t >= Sequence.length raw then None
      else
        let i = Sequence.get raw t in
        if Interaction.involves i node && Interaction.involves i 0 then Some t
        else scan (t + 1)
    in
    scan (after + 1)
  in
  for trial = 1 to 200 do
    let node = 1 + Prng.int rng (n - 1) in
    let after = Prng.int rng 1500 - 1 in
    let limit = after + 1 + Prng.int rng 400 in
    let limit = Stdlib.min limit 1999 in
    Alcotest.(check (option int))
      (Printf.sprintf "trial %d" trial)
      (naive node after limit)
      (Schedule.next_meet_with_sink s ~node ~after ~limit)
  done;
  (* A generator over the same sequence, queried in random order (so
     [after] also moves backwards) with limits up to 1999: the lazy
     search answers as the scan does, never materialises past
     [limit + 1], and stops within 512 interactions of a meet it
     finds, however far the limit lies. *)
  let live = Schedule.of_fun ~n ~sink:0 (Sequence.get raw) in
  for trial = 1 to 400 do
    let node = 1 + Prng.int rng (n - 1) in
    let after = Prng.int rng 1999 - 1 in
    let limit = after + 1 + Prng.int rng (1999 - after) in
    let before = Schedule.materialized live in
    let got = Schedule.next_meet_with_sink live ~node ~after ~limit in
    let label = Printf.sprintf "live trial %d (after %d, limit %d)" trial after limit in
    Alcotest.(check (option int)) label (naive node after limit) got;
    let now = Schedule.materialized live in
    if now > Int.max before (limit + 1) then
      Alcotest.failf "%s: materialised %d, past limit + 1" label now;
    match got with
    | Some m when now > Int.max before (m + 512) ->
        Alcotest.failf "%s: materialised %d, over 512 past the meet at %d" label
          now m
    | Some _ | None -> ()
  done

let test_schedule_prefix () =
  let rng = Prng.create 4 in
  let s = Schedule.of_fun ~n:5 ~sink:0 (Generators.uniform rng ~n:5) in
  let p = Schedule.prefix s 50 in
  Alcotest.(check int) "prefix length" 50 (Sequence.length p);
  (* Prefix matches the schedule. *)
  for t = 0 to 49 do
    Alcotest.(check bool) "same" true
      (Interaction.equal (Sequence.get p t) (Option.get (Schedule.get s t)))
  done

let test_schedule_meets_upto () =
  let s =
    Schedule.of_sequence ~n:4 ~sink:0
      (seq [ (0, 1); (0, 2); (1, 2); (0, 1); (0, 3) ])
  in
  let counts = Schedule.meets_with_sink_upto s 4 in
  Alcotest.(check int) "node1" 2 counts.(1);
  Alcotest.(check int) "node2" 1 counts.(2);
  Alcotest.(check int) "node3" 0 counts.(3);
  Alcotest.(check int) "sink total" 3 counts.(0)

let test_schedule_rejects_big_ids () =
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Schedule: interaction mentions a node id >= n") (fun () ->
      ignore (Schedule.of_sequence ~n:3 ~sink:0 (seq [ (0, 5) ])))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let test_round_robin_covers_all_pairs () =
  let n = 5 in
  let gen = Generators.round_robin ~n in
  let period = n * (n - 1) / 2 in
  let seen = Hashtbl.create 16 in
  for t = 0 to period - 1 do
    Hashtbl.replace seen (Interaction.to_pair (gen t)) ()
  done;
  Alcotest.(check int) "all pairs in one period" period (Hashtbl.length seen);
  (* Periodicity. *)
  Alcotest.(check bool) "periodic" true
    (Interaction.equal (gen 0) (gen period))

let test_all_pairs () =
  let s = Generators.all_pairs ~n:4 in
  Alcotest.(check int) "6 pairs" 6 (Sequence.length s)

let test_uniform_statistics () =
  let rng = Prng.create 5 in
  let n = 6 in
  let counts = Hashtbl.create 16 in
  let draws = 60_000 in
  for t = 0 to draws - 1 do
    let i = Generators.uniform rng ~n t in
    let key = Interaction.to_pair i in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Alcotest.(check int) "all pairs occur" 15 (Hashtbl.length counts);
  let expected = float_of_int draws /. 15.0 in
  Hashtbl.iter
    (fun _ c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 10%" true (dev < 0.1))
    counts

let test_weighted_nodes_bias () =
  let rng = Prng.create 6 in
  let weights = [| 10.0; 1.0; 1.0; 1.0 |] in
  let gen = Generators.weighted_nodes rng ~weights in
  let with0 = ref 0 in
  let draws = 20_000 in
  for t = 0 to draws - 1 do
    if Interaction.involves (gen t) 0 then incr with0
  done;
  let frac = float_of_int !with0 /. float_of_int draws in
  Alcotest.(check bool) "node 0 in most interactions" true (frac > 0.8)

let test_over_graph_respects_edges () =
  let rng = Prng.create 7 in
  let g = Static_graph.path 5 in
  let gen = Generators.over_graph rng g in
  for t = 0 to 999 do
    let i = gen t in
    Alcotest.(check bool) "edge of graph" true
      (Static_graph.has_edge g (Interaction.u i) (Interaction.v i))
  done

let test_periodic_and_stitch () =
  let base = seq [ (0, 1); (1, 2) ] in
  let gen = Generators.periodic base in
  Alcotest.(check bool) "wraps" true (Interaction.equal (gen 2) (gen 0));
  let stitched =
    Generators.stitch [ (2, Generators.periodic base); (1, fun _ -> Interaction.make 0 2) ]
  in
  Alcotest.(check bool) "first segment" true
    (Interaction.equal (stitched 0) (Interaction.make 0 1));
  Alcotest.(check bool) "second segment" true
    (Interaction.equal (stitched 2) (Interaction.make 0 2));
  (* last segment runs forever *)
  Alcotest.(check bool) "beyond" true
    (Interaction.equal (stitched 10) (Interaction.make 0 2))

let test_markov_edges_valid_and_bursty () =
  let rng = Prng.create 31 in
  let n = 10 in
  let gen = Generators.markov_edges rng ~n ~p_on:0.02 ~p_off:0.3 in
  let s = Sequence.of_array (Array.init 5_000 gen) in
  Alcotest.(check bool) "ids in range" true (Sequence.max_node s < n);
  (* Burstiness: a sticky edge process repeats the same pair in
     consecutive steps far more often than i.i.d. uniform sampling
     (uniform: 1/45 ~ 2.2%). *)
  let repeats = ref 0 in
  for t = 1 to Sequence.length s - 1 do
    if Interaction.equal (Sequence.get s t) (Sequence.get s (t - 1)) then incr repeats
  done;
  let frac = float_of_int !repeats /. float_of_int (Sequence.length s - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "repeat fraction %.3f exceeds uniform" frac)
    true (frac > 0.05)

let test_markov_edges_validation () =
  let rng = Prng.create 32 in
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Generators.markov_edges: probabilities must lie in (0, 1]")
    (fun () ->
      let _gen : int -> Interaction.t =
        Generators.markov_edges rng ~n:5 ~p_on:0.0 ~p_off:0.5
      in
      ())

let test_of_snapshots () =
  let g1 = Static_graph.of_edges 3 [ (0, 1) ] in
  let g2 = Static_graph.of_edges 3 [ (1, 2); (0, 2) ] in
  let s = Generators.of_snapshots [ g1; g2 ] in
  Alcotest.(check int) "three interactions" 3 (Sequence.length s)

(* ------------------------------------------------------------------ *)
(* Underlying graph                                                    *)

let test_underlying () =
  let s = seq [ (0, 1); (1, 2); (0, 1) ] in
  let g = Underlying.of_sequence ~n:4 s in
  Alcotest.(check int) "two edges" 2 (Static_graph.edge_count g);
  Alcotest.(check bool) "has 0-1" true (Static_graph.has_edge g 0 1);
  Alcotest.(check bool) "isolated 3" true (Static_graph.degree g 3 = 0)

let test_recurrent_edges () =
  (* Edge (0,1) appears every 2 steps; (2,3) only once. *)
  let s = seq [ (0, 1); (2, 3); (0, 1); (1, 2); (0, 1); (1, 2) ] in
  let g = Underlying.recurrent_edges ~n:4 s ~period:3 in
  Alcotest.(check bool) "0-1 recurrent" true (Static_graph.has_edge g 0 1);
  Alcotest.(check bool) "2-3 not recurrent" false (Static_graph.has_edge g 2 3)

(* ------------------------------------------------------------------ *)
(* Temporal                                                            *)

let test_earliest_arrival () =
  let s = seq [ (0, 1); (1, 2); (2, 3) ] in
  let arr = Temporal.earliest_arrival ~n:4 ~src:0 s in
  Alcotest.(check (option int)) "src" (Some (-1)) arr.(0);
  Alcotest.(check (option int)) "node1" (Some 0) arr.(1);
  Alcotest.(check (option int)) "node2" (Some 1) arr.(2);
  Alcotest.(check (option int)) "node3" (Some 2) arr.(3)

let test_earliest_arrival_order_matters () =
  (* Reversed order: info cannot flow backwards in time. *)
  let s = seq [ (2, 3); (1, 2); (0, 1) ] in
  let arr = Temporal.earliest_arrival ~n:4 ~src:0 s in
  Alcotest.(check (option int)) "node1 reached" (Some 2) arr.(1);
  Alcotest.(check (option int)) "node3 unreachable" None arr.(3)

let test_broadcast_completion () =
  let s = seq [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  Alcotest.(check (option int)) "completes at 2" (Some 2)
    (Temporal.broadcast_completion ~n:4 ~src:0 s);
  Alcotest.(check (option int)) "from 3 incomplete" None
    (Temporal.broadcast_completion ~n:4 ~src:3 (seq [ (0, 1) ]))

let test_temporal_connectivity () =
  let n = 4 in
  let connected = Sequence.repeat (Generators.all_pairs ~n) 2 in
  Alcotest.(check bool) "repeated all-pairs connected" true
    (Temporal.temporally_connected ~n connected);
  Alcotest.(check bool) "single pass may fail" false
    (Temporal.temporally_connected ~n (seq [ (0, 1) ]))

let test_foremost_journey () =
  let s = seq [ (0, 1); (2, 3); (1, 2) ] in
  (match Temporal.foremost_journey ~n:4 ~src:0 ~dst:2 s with
  | Some [ (0, _); (2, _) ] -> ()
  | Some j ->
      Alcotest.fail
        (Printf.sprintf "unexpected journey of %d hops" (List.length j))
  | None -> Alcotest.fail "journey expected");
  Alcotest.(check bool) "same node trivial" true
    (Temporal.foremost_journey ~n:4 ~src:1 ~dst:1 s = Some []);
  Alcotest.(check bool) "unreachable" true
    (Temporal.foremost_journey ~n:4 ~src:3 ~dst:0 s = None)

let test_reverse_flood_duality_window () =
  (* Window sensitivity: {1,2} then {0,1}: convergecast needs both. *)
  let s = seq [ (1, 2); (0, 1) ] in
  Alcotest.(check bool) "full window works" true
    (Temporal.reverse_flood_all_informed ~n:3 ~src:0 s ~lo:0 ~hi:1);
  Alcotest.(check bool) "partial window fails" false
    (Temporal.reverse_flood_all_informed ~n:3 ~src:0 s ~lo:1 ~hi:1)

let test_reachable_set () =
  let s = seq [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list int)) "from 0" [ 0; 1; 2 ]
    (Temporal.reachable_set ~n:5 ~src:0 s);
  Alcotest.(check (list int)) "horizon 1" [ 0; 1 ]
    (Temporal.reachable_set ~n:5 ~src:0 ~horizon:1 s)

(* ------------------------------------------------------------------ *)
(* Evolving graphs                                                     *)

module Evolving_graph = Doda_dynamic.Evolving_graph

let test_evolving_roundtrip_single_edge () =
  (* The paper's reduction: snapshots with one edge each flatten to the
     same interaction sequence. *)
  let snaps =
    [
      Static_graph.of_edges 3 [ (0, 1) ];
      Static_graph.of_edges 3 [ (1, 2) ];
      Static_graph.of_edges 3 [ (0, 2) ];
    ]
  in
  let eg = Evolving_graph.make ~n:3 snaps in
  let s = Evolving_graph.to_interactions eg in
  Alcotest.(check bool) "flattening" true
    (Sequence.equal s (seq [ (0, 1); (1, 2); (0, 2) ]))

let test_evolving_of_interactions_windows () =
  let s = seq [ (0, 1); (1, 2); (0, 2); (0, 1); (2, 3) ] in
  let eg = Evolving_graph.of_interactions ~n:4 ~window:2 s in
  Alcotest.(check int) "three buckets" 3 (Evolving_graph.length eg);
  Alcotest.(check int) "bucket 0 edges" 2
    (Static_graph.edge_count (Evolving_graph.snapshot eg 0));
  (* last partial bucket has one interaction *)
  Alcotest.(check int) "bucket 2 edges" 1
    (Static_graph.edge_count (Evolving_graph.snapshot eg 2))

let test_evolving_union_and_lifetimes () =
  let snaps =
    [ Static_graph.of_edges 3 [ (0, 1); (1, 2) ]; Static_graph.of_edges 3 [ (0, 1) ] ]
  in
  let eg = Evolving_graph.make ~n:3 snaps in
  Alcotest.(check int) "union edges" 2
    (Static_graph.edge_count (Evolving_graph.union eg));
  Alcotest.(check (list (pair (pair int int) int))) "lifetimes"
    [ ((0, 1), 2); ((1, 2), 1) ]
    (Evolving_graph.edge_lifetimes eg)

let test_evolving_always_connected () =
  let connected = Evolving_graph.make ~n:3 [ Static_graph.path 3; Static_graph.cycle 3 ] in
  Alcotest.(check bool) "connected" true (Evolving_graph.always_connected connected);
  let broken =
    Evolving_graph.make ~n:3 [ Static_graph.path 3; Static_graph.of_edges 3 [ (0, 1) ] ]
  in
  Alcotest.(check bool) "broken" false (Evolving_graph.always_connected broken)

let test_evolving_rejects_bad_snapshot () =
  Alcotest.check_raises "wrong node count"
    (Invalid_argument "Evolving_graph.make: snapshot with wrong node count")
    (fun () -> ignore (Evolving_graph.make ~n:3 [ Static_graph.path 4 ]))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

module Metrics = Doda_dynamic.Metrics

let test_metrics_activity () =
  let s = seq [ (0, 1); (1, 2); (0, 1) ] in
  Alcotest.(check (array int)) "activity" [| 2; 3; 1; 0 |] (Metrics.activity ~n:4 s)

let test_metrics_pair_counts () =
  let s = seq [ (0, 1); (1, 2); (1, 0) ] in
  Alcotest.(check (list (pair (pair int int) int))) "counts"
    [ ((0, 1), 2); ((1, 2), 1) ]
    (Metrics.pair_counts s)

let test_metrics_inter_contact () =
  let s = seq [ (0, 1); (1, 2); (0, 1); (0, 1) ] in
  Alcotest.(check (list int)) "gaps" [ 2; 1 ] (Metrics.inter_contact_times s ~u:0 ~v:1);
  Alcotest.(check (list int)) "no repeat" [] (Metrics.inter_contact_times s ~u:1 ~v:2);
  Alcotest.(check (option (float 1e-9))) "mean" (Some 1.5)
    (Metrics.mean_inter_contact s ~u:0 ~v:1)

let test_metrics_sink_meetings_and_density () =
  let s = seq [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check (list int)) "sink meetings" [ 0; 2 ]
    (Metrics.sink_meeting_times s ~sink:0);
  Alcotest.(check (float 1e-9)) "density" 1.0 (Metrics.temporal_density ~n:3 s)

let test_metrics_skew () =
  (* Node 0 in every interaction of a star-like trace. *)
  let s = seq [ (0, 1); (0, 2); (0, 3) ] in
  let skew = Metrics.activity_skew ~n:4 s in
  Alcotest.(check (float 1e-9)) "skew 2" 2.0 skew;
  Alcotest.(check bool) "summary nonempty" true
    (String.length (Metrics.summary ~n:4 ~sink:0 s) > 0)

(* ------------------------------------------------------------------ *)
(* Presence (interval TVGs)                                            *)

module Presence = Doda_dynamic.Presence

let test_presence_intervals () =
  let p = Presence.create ~n:4 in
  Presence.add_interval p ~u:0 ~v:1 ~start:2 ~stop:5;
  Presence.add_interval p ~u:1 ~v:0 ~start:8 ~stop:9;
  Presence.add_interval p ~u:2 ~v:3 ~start:0 ~stop:3;
  Alcotest.(check int) "span" 9 (Presence.span p);
  Alcotest.(check bool) "absent before" false (Presence.present p ~u:0 ~v:1 ~time:1);
  Alcotest.(check bool) "present" true (Presence.present p ~u:0 ~v:1 ~time:4);
  Alcotest.(check bool) "stop exclusive" false (Presence.present p ~u:0 ~v:1 ~time:5);
  Alcotest.(check bool) "second interval" true (Presence.present p ~u:0 ~v:1 ~time:8);
  Alcotest.(check bool) "orientation-free" true (Presence.present p ~u:1 ~v:0 ~time:8)

let test_presence_snapshot_and_flatten () =
  let p = Presence.create ~n:3 in
  Presence.add_interval p ~u:0 ~v:1 ~start:0 ~stop:2;
  Presence.add_interval p ~u:1 ~v:2 ~start:1 ~stop:2;
  let g0 = Presence.snapshot p 0 in
  Alcotest.(check int) "t=0 one edge" 1 (Static_graph.edge_count g0);
  let g1 = Presence.snapshot p 1 in
  Alcotest.(check int) "t=1 two edges" 2 (Static_graph.edge_count g1);
  let s = Presence.to_interactions p in
  (* t=0 contributes (0,1); t=1 contributes (0,1) and (1,2). *)
  Alcotest.(check int) "flattened" 3 (Sequence.length s)

let test_presence_validation () =
  let p = Presence.create ~n:3 in
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Presence.add_interval: need 0 <= start < stop") (fun () ->
      Presence.add_interval p ~u:0 ~v:1 ~start:3 ~stop:3);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Presence.add_interval: self-loop") (fun () ->
      Presence.add_interval p ~u:1 ~v:1 ~start:0 ~stop:1)

let test_presence_random_within_horizon () =
  let rng = Prng.create 41 in
  let p = Presence.random rng ~n:6 ~horizon:50 ~mean_up:2.0 ~mean_down:3.0 in
  Alcotest.(check bool) "span within horizon" true (Presence.span p <= 50);
  (* Conversions agree. *)
  let eg = Presence.to_evolving p in
  Alcotest.(check int) "evolving length" (Presence.span p)
    (Doda_dynamic.Evolving_graph.length eg)

(* ------------------------------------------------------------------ *)
(* Mobility                                                            *)

let test_random_waypoint_generates_valid () =
  let rng = Prng.create 8 in
  let gen = Mobility.random_waypoint rng ~n:10 in
  for t = 0 to 99 do
    let i = gen t in
    Alcotest.(check bool) "valid ids" true (Interaction.v i < 10)
  done

let test_community_intra_bias () =
  let rng = Prng.create 9 in
  let gen = Mobility.community rng ~n:12 ~communities:3 ~p_intra:0.9 in
  let intra = ref 0 in
  let draws = 5_000 in
  for t = 0 to draws - 1 do
    let i = gen t in
    if Interaction.u i mod 3 = Interaction.v i mod 3 then incr intra
  done;
  let frac = float_of_int !intra /. float_of_int draws in
  Alcotest.(check bool) "mostly intra" true (frac > 0.8)

let test_grid_walkers_valid () =
  let rng = Prng.create 10 in
  let gen = Mobility.grid_walkers rng ~n:8 ~rows:3 ~cols:3 in
  for t = 0 to 49 do
    let i = gen t in
    Alcotest.(check bool) "valid ids" true (Interaction.v i < 8)
  done

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let with_temp_trace f =
  let path = Filename.temp_file "doda" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_trace_roundtrip () =
  let rng = Prng.create 11 in
  let s = Generators.uniform_sequence rng ~n:6 ~length:100 in
  with_temp_trace (fun path ->
      Trace.save path s;
      let s2 = Trace.load path in
      Alcotest.(check bool) "roundtrip" true (Sequence.equal s s2))

let test_trace_parse () =
  Alcotest.(check bool) "comment skipped" true (Trace.parse_line "# hello" = None);
  Alcotest.(check bool) "blank skipped" true (Trace.parse_line "   " = None);
  Alcotest.(check bool) "parses" true (Trace.parse_line "3 1 2" = Some (3, 1, 2))

let test_trace_rejects_gap () =
  with_temp_trace (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "0 1 2\n5 0 1\n");
      Alcotest.check_raises "gap"
        (Failure "Trace: line 2: expected time 1, got 5") (fun () ->
          ignore (Trace.load path)))

let write_trace path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let raises what expected f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception, expected %s" what (Printexc.to_string expected)
  | exception e ->
      Alcotest.(check string) what (Printexc.to_string expected) (Printexc.to_string e)

(* A file read in two ranges reports the fault a sequential read
   reports, with the same line number and expected time, wherever the
   cut falls around it: on the last line of the first range, the first
   line of the second, or the first interaction line after a comment
   that opens the second. *)
let test_trace_split_faults () =
  let line t = Printf.sprintf "%d %d %d" t (t mod 4) ((t mod 4) + 1) in
  let lines a b = List.init (b - a) (fun k -> line (a + k)) in
  let gap ~at t =
    Failure (Printf.sprintf "Trace: line %d: expected time %d, got %d" at t (t + 2))
  in
  let faults =
    [ ("time gap", (fun t -> [ line (t + 2) ]), gap);
      ( "self-interaction",
        (fun t -> [ Printf.sprintf "%d 2 2" t ]),
        fun ~at:_ _ -> Invalid_argument "Interaction.make: self-interaction" );
      ( "malformed line",
        (fun t -> [ Printf.sprintf "%d 0 x" t ]),
        fun ~at:_ t -> Failure (Printf.sprintf "Trace: malformed line: %d 0 x" t) );
      ( "missing line",
        (fun _ -> []),
        fun ~at t ->
          Failure
            (Printf.sprintf "Trace: line %d: expected time %d, got %d" at t (t + 1)) ) ]
  in
  (* the two ranges, the fault's line number and the time it should carry *)
  let placements fault =
    [ ("last line of range 1", (lines 0 3 @ fault 3, lines 4 8), 4, 3);
      ("first line of range 2", (lines 0 4, fault 4 @ lines 5 8), 5, 4);
      ( "after a comment opening range 2",
        (lines 0 4, ("# range 2" :: fault 4) @ lines 5 8),
        6,
        4 ) ]
  in
  with_temp_trace (fun path ->
      List.iter
        (fun (name, fault, expected) ->
          List.iter
            (fun (where, (first, second), at, t) ->
              write_trace path (first @ second);
              let cut =
                List.fold_left (fun k l -> k + String.length l + 1) 0 first
              in
              let what = Printf.sprintf "%s, %s" name where in
              raises (what ^ ", one range") (expected ~at t) (fun () ->
                  Trace.load path);
              raises (what ^ ", two ranges") (expected ~at t) (fun () ->
                  Trace.load_split path [ cut ]))
            (placements fault))
        faults)

(* A line longer than 1 MiB fails with its number in every reader of
   files and channels, having grown the buffer no further than the
   bound; a line of exactly 1 MiB still reads. *)
let test_trace_line_bound () =
  let max_line = 1 lsl 20 in
  let long = "#" ^ String.make (2 * max_line) 'c' in
  let too_long = Failure "Trace: line 2: longer than 1048576 bytes" in
  with_temp_trace (fun path ->
      write_trace path [ "0 0 1"; long; "1 0 1" ];
      let before = Gc.allocated_bytes () in
      raises "load" too_long (fun () -> Trace.load path);
      let grown = Gc.allocated_bytes () -. before in
      if grown >= 4. *. 1048576. then
        Alcotest.failf "load allocated %.0f bytes for a 2 MiB line" grown;
      raises "stream" too_long (fun () -> Trace.stream path);
      List.iter
        (fun cut ->
          raises (Printf.sprintf "load_split at %d" cut) too_long (fun () ->
              Trace.load_split path [ cut ]))
        [ 3; 6; 7; 1000; max_line; String.length long ];
      In_channel.with_open_bin path (fun ic ->
          let gen = Trace.stream_channel ~length:2 ic in
          ignore (gen 0);
          raises "stream_channel" too_long (fun () -> gen 1));
      List.iter
        (fun (k, outcome) ->
          write_trace path [ "0 0 1"; "#" ^ String.make (k - 1) 'c'; "1 0 1" ];
          match outcome with
          | None ->
              Alcotest.(check int)
                (Printf.sprintf "a %d-byte comment reads" k)
                2
                (Sequence.length (Trace.load path))
          | Some e ->
              raises (Printf.sprintf "a %d-byte comment" k) e (fun () ->
                  Trace.load path))
        [ (max_line - 1, None); (max_line, None); (max_line + 1, Some too_long) ])

(* A file is sized and read twice, which a pipe does not allow: one
   line says so. *)
let test_trace_needs_a_regular_file () =
  let path = Filename.temp_file "doda" ".fifo" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* the writer only opens and closes, so the reader's open returns *)
      let writer = Thread.create (fun () -> close_out (open_out_bin path)) () in
      raises "load"
        (Failure (Printf.sprintf "Trace: %s is not a regular file (Illegal seek)" path))
        (fun () -> Trace.load path);
      Thread.join writer)

(* A streamed run that stops before the end of its trace must not keep
   the file open: sweeps build one streamed schedule per replication. *)
let test_trace_stream_closes_file () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = List.sort compare (Array.to_list (Sys.readdir "/proc/self/fd")) in
  let s = Generators.uniform_sequence (Prng.create 12) ~n:6 ~length:1000 in
  with_temp_trace (fun path ->
      Trace.save path s;
      let before = open_fds () in
      for _ = 1 to 100 do
        let gen, length, _ = Trace.stream path in
        let sched = Schedule.of_fun_chunked ~block:16 ~length ~n:6 ~sink:0 gen in
        for t = 0 to 4 do
          ignore (Schedule.get_exn sched t)
        done
      done;
      Alcotest.(check (list string)) "no descriptor left open" before (open_fds ()))

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

let test_empty_sequence_operations () =
  let empty = Sequence.of_list [] in
  Alcotest.(check int) "length" 0 (Sequence.length empty);
  Alcotest.(check int) "max node" (-1) (Sequence.max_node empty);
  Alcotest.(check bool) "rev" true (Sequence.equal empty (Sequence.rev empty));
  Alcotest.(check int) "repeat 0" 0
    (Sequence.length (Sequence.repeat (seq [ (0, 1) ]) 0));
  let eg = Doda_dynamic.Evolving_graph.of_interactions ~n:3 ~window:5 empty in
  Alcotest.(check int) "no buckets" 0 (Doda_dynamic.Evolving_graph.length eg)

let test_metrics_empty_sequence () =
  let empty = Sequence.of_list [] in
  Alcotest.(check (array int)) "activity zero" [| 0; 0; 0 |]
    (Metrics.activity ~n:3 empty);
  Alcotest.(check (float 1e-9)) "density zero" 0.0
    (Metrics.temporal_density ~n:3 empty);
  Alcotest.check_raises "skew undefined"
    (Invalid_argument "Metrics.activity_skew: empty sequence") (fun () ->
      ignore (Metrics.activity_skew ~n:3 empty))

let test_interaction_rejects_negative () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "Interaction.make: negative node id") (fun () ->
      ignore (Interaction.make (-1) 2))

let test_temporal_on_empty_sequence () =
  let empty = Sequence.of_list [] in
  Alcotest.(check (option int)) "no broadcast" None
    (Temporal.broadcast_completion ~n:3 ~src:0 empty);
  Alcotest.(check (list int)) "only source reachable" [ 0 ]
    (Temporal.reachable_set ~n:3 ~src:0 empty)

let test_schedule_single_pair_repeat () =
  (* The same pair forever: node 2 never meets the sink. *)
  let s = Schedule.of_fun ~n:3 ~sink:0 (fun _ -> Interaction.make 1 2) in
  Alcotest.(check (option int)) "never meets" None
    (Schedule.next_meet_with_sink s ~node:2 ~after:(-1) ~limit:500)

let () =
  Alcotest.run "dynamic"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "normalised" `Quick test_interaction_normalised;
          Alcotest.test_case "rejects self" `Quick test_interaction_rejects_self;
          Alcotest.test_case "other rejects stranger" `Quick
            test_interaction_other_rejects_stranger;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "operations" `Quick test_sequence_ops;
          Alcotest.test_case "interactions_of" `Quick test_sequence_interactions_of;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "finite" `Quick test_schedule_finite;
          Alcotest.test_case "lazy materialisation" `Quick
            test_schedule_lazy_materialisation;
          Alcotest.test_case "meet time" `Quick test_schedule_meet_time;
          Alcotest.test_case "meet time vs scan" `Slow
            test_schedule_meet_time_matches_scan;
          Alcotest.test_case "prefix" `Quick test_schedule_prefix;
          Alcotest.test_case "meets upto" `Quick test_schedule_meets_upto;
          Alcotest.test_case "rejects big ids" `Quick test_schedule_rejects_big_ids;
        ] );
      ( "generators",
        [
          Alcotest.test_case "round robin" `Quick test_round_robin_covers_all_pairs;
          Alcotest.test_case "all pairs" `Quick test_all_pairs;
          Alcotest.test_case "uniform statistics" `Slow test_uniform_statistics;
          Alcotest.test_case "weighted bias" `Slow test_weighted_nodes_bias;
          Alcotest.test_case "over graph" `Quick test_over_graph_respects_edges;
          Alcotest.test_case "periodic and stitch" `Quick test_periodic_and_stitch;
          Alcotest.test_case "markov edges" `Quick test_markov_edges_valid_and_bursty;
          Alcotest.test_case "markov validation" `Quick test_markov_edges_validation;
          Alcotest.test_case "of snapshots" `Quick test_of_snapshots;
        ] );
      ( "underlying",
        [
          Alcotest.test_case "basic" `Quick test_underlying;
          Alcotest.test_case "recurrent edges" `Quick test_recurrent_edges;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "earliest arrival" `Quick test_earliest_arrival;
          Alcotest.test_case "order matters" `Quick test_earliest_arrival_order_matters;
          Alcotest.test_case "broadcast completion" `Quick test_broadcast_completion;
          Alcotest.test_case "temporal connectivity" `Quick test_temporal_connectivity;
          Alcotest.test_case "foremost journey" `Quick test_foremost_journey;
          Alcotest.test_case "reverse flood window" `Quick
            test_reverse_flood_duality_window;
          Alcotest.test_case "reachable set" `Quick test_reachable_set;
        ] );
      ( "evolving-graph",
        [
          Alcotest.test_case "single-edge roundtrip" `Quick
            test_evolving_roundtrip_single_edge;
          Alcotest.test_case "windowed buckets" `Quick
            test_evolving_of_interactions_windows;
          Alcotest.test_case "union and lifetimes" `Quick
            test_evolving_union_and_lifetimes;
          Alcotest.test_case "always connected" `Quick test_evolving_always_connected;
          Alcotest.test_case "rejects bad snapshot" `Quick
            test_evolving_rejects_bad_snapshot;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "activity" `Quick test_metrics_activity;
          Alcotest.test_case "pair counts" `Quick test_metrics_pair_counts;
          Alcotest.test_case "inter-contact" `Quick test_metrics_inter_contact;
          Alcotest.test_case "sink meetings and density" `Quick
            test_metrics_sink_meetings_and_density;
          Alcotest.test_case "skew" `Quick test_metrics_skew;
        ] );
      ( "presence",
        [
          Alcotest.test_case "intervals" `Quick test_presence_intervals;
          Alcotest.test_case "snapshot and flatten" `Quick
            test_presence_snapshot_and_flatten;
          Alcotest.test_case "validation" `Quick test_presence_validation;
          Alcotest.test_case "random within horizon" `Quick
            test_presence_random_within_horizon;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "random waypoint" `Quick test_random_waypoint_generates_valid;
          Alcotest.test_case "community bias" `Slow test_community_intra_bias;
          Alcotest.test_case "grid walkers" `Quick test_grid_walkers_valid;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty sequence" `Quick test_empty_sequence_operations;
          Alcotest.test_case "metrics on empty" `Quick test_metrics_empty_sequence;
          Alcotest.test_case "negative id rejected" `Quick
            test_interaction_rejects_negative;
          Alcotest.test_case "temporal on empty" `Quick test_temporal_on_empty_sequence;
          Alcotest.test_case "single pair repeat" `Quick
            test_schedule_single_pair_repeat;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "parse" `Quick test_trace_parse;
          Alcotest.test_case "rejects gap" `Quick test_trace_rejects_gap;
          Alcotest.test_case "split reads report the sequential fault" `Quick
            test_trace_split_faults;
          Alcotest.test_case "a line is at most 1 MiB" `Quick
            test_trace_line_bound;
          Alcotest.test_case "a pipe is refused with one line" `Quick
            test_trace_needs_a_regular_file;
          Alcotest.test_case "stream closes its file" `Quick
            test_trace_stream_closes_file;
        ] );
    ]
