(* Property-based tests (qcheck) on the core invariants of the model:
   engine conservation laws, the convergecast duality, flooding
   monotonicity, cost-function properties, spanning-tree structure. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Underlying = Doda_dynamic.Underlying
module Temporal = Doda_dynamic.Temporal
module Trace = Doda_dynamic.Trace
module Static_graph = Doda_graph.Static_graph
module Spanning_tree = Doda_graph.Spanning_tree
module Graph_gen = Doda_graph.Graph_gen
module Engine = Doda_core.Engine
module Convergecast = Doda_core.Convergecast
module Brute_force = Doda_core.Brute_force
module Cost = Doda_core.Cost
module Algorithms = Doda_core.Algorithms
module Prng = Doda_prng.Prng

(* A generated problem instance: node count and a random finite
   sequence of interactions described by a seed. *)
let instance_gen =
  QCheck.Gen.(
    map3
      (fun n len seed -> (n, len, seed))
      (int_range 3 9) (int_range 1 60) (int_range 0 1_000_000))

let instance_arb =
  QCheck.make
    ~print:(fun (n, len, seed) -> Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    instance_gen

let sequence_of (n, len, seed) =
  Generators.uniform_sequence (Prng.create seed) ~n ~length:len

let count = 300

(* ------------------------------------------------------------------ *)

let prop_interaction_symmetric =
  QCheck.Test.make ~count ~name:"interaction: make is symmetric"
    QCheck.(pair (int_range 0 50) (int_range 0 50))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      Interaction.equal (Interaction.make a b) (Interaction.make b a))

let prop_pair_ordered_distinct =
  QCheck.Test.make ~count ~name:"prng: pair is ordered and in range"
    QCheck.(pair (int_range 2 100) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let a, b = Prng.pair rng n in
      a >= 0 && a < b && b < n)

let prop_sequence_rev_involutive =
  QCheck.Test.make ~count ~name:"sequence: rev is involutive" instance_arb
    (fun inst ->
      let s = sequence_of inst in
      Sequence.equal s (Sequence.rev (Sequence.rev s)))

let prop_underlying_edges_exact =
  QCheck.Test.make ~count ~name:"underlying: edge set equals interaction pairs"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let g = Underlying.of_sequence ~n s in
      let in_seq = Hashtbl.create 16 in
      Sequence.iteri (fun _ i -> Hashtbl.replace in_seq (Interaction.to_pair i) ()) s;
      List.for_all (fun e -> Hashtbl.mem in_seq e) (Static_graph.edges g)
      && Hashtbl.length in_seq = Static_graph.edge_count g)

let prop_flooding_monotone_in_horizon =
  QCheck.Test.make ~count ~name:"temporal: reachable set grows with horizon"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let h1 = len / 2 and h2 = len in
      let r1 = Temporal.reachable_set ~n ~src:0 ~horizon:h1 s in
      let r2 = Temporal.reachable_set ~n ~src:0 ~horizon:h2 s in
      List.for_all (fun v -> List.mem v r2) r1)

let prop_opt_matches_brute_force =
  QCheck.Test.make ~count:150 ~name:"convergecast: opt equals exhaustive search"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let start = len / 3 in
      Convergecast.opt ~n ~sink:0 s start
      = Brute_force.optimal_duration ~n ~sink:0 s ~start)

let prop_opt_monotone_in_start =
  QCheck.Test.make ~count ~name:"convergecast: opt is monotone in start time"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let o0 = Convergecast.opt ~n ~sink:0 s 0 in
      let o1 = Convergecast.opt ~n ~sink:0 s (len / 2) in
      match (o0, o1) with
      | Some a, Some b -> a <= b
      | _, None -> true
      | None, Some _ -> false)

let prop_plan_valid =
  QCheck.Test.make ~count ~name:"convergecast: extracted plan is a valid schedule"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      match Convergecast.plan ~n ~sink:0 s ~start:0 with
      | None -> QCheck.assume_fail ()
      | Some plan ->
          let ok = ref true in
          let used = Hashtbl.create 16 in
          for v = 1 to n - 1 do
            let t = plan.fire_time.(v) in
            if t < 0 then ok := false
            else begin
              if Hashtbl.mem used t then ok := false;
              Hashtbl.replace used t ();
              let i = Sequence.get s t in
              if not (Interaction.involves i v) then ok := false;
              let target = plan.fire_to.(v) in
              if target <> Interaction.other i v then ok := false;
              if target <> 0 && plan.fire_time.(target) <= t then ok := false
            end
          done;
          !ok)

let prop_engine_conservation =
  QCheck.Test.make ~count ~name:"engine: transmissions = n - owners, senders unique"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      ignore len;
      let r = Engine.run Algorithms.gathering sched in
      let owners = Engine.count_owners r in
      let senders = List.map (fun t -> t.Engine.sender) (Engine.transmissions r) in
      List.length (Engine.transmissions r) = n - owners
      && List.length (List.sort_uniq compare senders) = List.length senders
      && (not (List.mem 0 senders))
      && r.holders.(0))

let prop_engine_termination_iff_sink_only =
  QCheck.Test.make ~count ~name:"engine: All_aggregated iff only the sink owns"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let r = Engine.run Algorithms.gathering sched in
      (r.stop = Engine.All_aggregated) = (Engine.count_owners r = 1))

let prop_full_knowledge_cost_one =
  QCheck.Test.make ~count:150 ~name:"cost: full knowledge has cost 1 when feasible"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      QCheck.assume (Convergecast.opt ~n ~sink:0 s 0 <> None);
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let r = Engine.run Algorithms.full_knowledge sched in
      Cost.equal (Cost.of_result ~n ~sink:0 s r) (Cost.Finite 1))

let prop_cost_never_below_one =
  QCheck.Test.make ~count ~name:"cost: any terminating run costs at least 1"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let r = Engine.run Algorithms.gathering sched in
      match r.duration with
      | None -> QCheck.assume_fail ()
      | Some _ -> Cost.to_float (Cost.of_result ~n ~sink:0 s r) >= 1.0)

let prop_t_chain_matches_opt_iteration =
  QCheck.Test.make ~count ~name:"cost: t_chain is the iterated opt" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let chain = Convergecast.t_chain ~n ~sink:0 s in
      let rec verify start = function
        | [] -> Convergecast.opt ~n ~sink:0 s start = None
        | t :: rest ->
            Convergecast.opt ~n ~sink:0 s start = Some t && verify (t + 1) rest
      in
      verify 0 chain)

let prop_spanning_tree_structure =
  QCheck.Test.make ~count ~name:"spanning tree: parents point one level up"
    QCheck.(pair (int_range 2 40) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let g = Graph_gen.random_connected rng ~n ~extra_edges:(n / 2) in
      let t = Spanning_tree.bfs_tree g ~root:0 in
      let ok = ref true in
      for v = 1 to n - 1 do
        let p = Spanning_tree.parent t v in
        if not (Static_graph.has_edge g p v) then ok := false;
        if Spanning_tree.depth t v <> Spanning_tree.depth t p + 1 then ok := false
      done;
      !ok && Static_graph.is_tree (Spanning_tree.to_graph t))

let prop_broadcast_convergecast_duality =
  QCheck.Test.make ~count ~name:"duality: convergecast feasible iff reverse broadcast"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      (* Forward broadcast completion on the reversed sequence equals a
         feasible convergecast window on the original. *)
      let rev = Sequence.rev s in
      let forward = Temporal.broadcast_completion ~n ~src:0 rev in
      let feasible = Convergecast.opt ~n ~sink:0 s 0 <> None in
      (forward <> None)
      = (feasible
        &&
        (* Broadcast on the whole reversed sequence succeeding says a
           convergecast fits somewhere in the whole window. *)
        Convergecast.feasible ~n ~sink:0 s ~lo:0 ~hi:(len - 1)))

let prop_schedule_meet_time_sound =
  QCheck.Test.make ~count ~name:"schedule: meet times point at sink interactions"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let ok = ref true in
      for node = 1 to n - 1 do
        match Schedule.next_meet_with_sink sched ~node ~after:(-1) ~limit:(len - 1) with
        | None -> ()
        | Some t ->
            let i = Sequence.get s t in
            if not (Interaction.involves i node && Interaction.involves i 0) then
              ok := false
      done;
      !ok)

let prop_stepper_equals_run =
  QCheck.Test.make ~count ~name:"engine: stepping equals running" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let r1 = Engine.run Algorithms.gathering (Schedule.of_sequence ~n ~sink:0 s) in
      let st = Engine.start Algorithms.gathering (Schedule.of_sequence ~n ~sink:0 s) in
      let rec drive () =
        match Engine.step st with
        | Engine.Finished reason -> Engine.finish st reason
        | Engine.Stepped _ -> drive ()
      in
      let r2 = drive () in
      r1.duration = r2.duration
      && (Engine.transmissions r1) = (Engine.transmissions r2)
      && r1.stop = r2.stop)

let prop_engine_runs_validate =
  QCheck.Test.make ~count ~name:"validate: every engine log passes" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let check algo =
        let r = Engine.run algo (Schedule.of_sequence ~n ~sink:0 s) in
        Doda_core.Validate.execution ~n ~sink:0 s r.log = []
        && (r.stop <> Engine.All_aggregated
           || Doda_core.Validate.complete ~n ~sink:0 s r.log)
      in
      List.for_all check
        (Algorithms.gathering :: Algorithms.waiting
        :: Doda_core.Gathering_variants.all))

let prop_plans_validate =
  QCheck.Test.make ~count ~name:"validate: every extracted plan passes" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      match Convergecast.plan ~n ~sink:0 s ~start:0 with
      | None -> QCheck.assume_fail ()
      | Some plan -> Doda_core.Validate.plan ~n ~sink:0 s plan = [])

let prop_exact_mean_finite_and_positive =
  QCheck.Test.make ~count ~name:"exact: phase means are positive and ordered"
    QCheck.(int_range 3 80)
    (fun n ->
      let module G = Doda_stats.Geometric_sum in
      let w = G.mean (Doda_core.Theory.waiting_phases n) in
      let g = G.mean (Doda_core.Theory.gathering_phases n) in
      let b = G.mean (Doda_core.Theory.broadcast_phases n) in
      (* broadcast <= gathering <= waiting, all positive *)
      b > 0.0 && b <= g && g <= w)

let prop_metrics_activity_conserved =
  QCheck.Test.make ~count ~name:"metrics: activity sums to twice the length"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let counts = Doda_dynamic.Metrics.activity ~n s in
      Array.fold_left ( + ) 0 counts = 2 * len)

let prop_evolving_roundtrip =
  QCheck.Test.make ~count ~name:"evolving graph: window=1 roundtrips" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let eg = Doda_dynamic.Evolving_graph.of_interactions ~n ~window:1 s in
      Sequence.equal s (Doda_dynamic.Evolving_graph.to_interactions eg))

(* [Cost] walks the chain only as far as the answer needs; the
   definition is checked here against the whole [t_chain]: at each
   T(i) (where the cost is i), one step either side of it, and past
   the last entry. *)
let prop_cost_boundary_exact =
  QCheck.Test.make ~count ~name:"cost: duration exactly T(i) costs i" instance_arb
    (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let chain = Convergecast.t_chain ~n ~sink:0 s in
      let rec first_reaching i d = function
        | [] -> i
        | ending :: rest -> if d <= ending then i else first_reaching (i + 1) d rest
      in
      let last = List.fold_left Int.max (-1) chain in
      let durations =
        List.concat_map (fun e -> [ e - 1; e; e + 1 ]) chain @ [ last + 1; len + 1 ]
      in
      List.for_all
        (fun d ->
          Cost.cost ~n ~sink:0 s ~duration:(Some d)
          = Cost.Finite (first_reaching 1 d chain))
        durations
      && List.for_all
           (fun upto ->
             Cost.convergecasts_within ~n ~sink:0 s ~upto
             = List.length (List.filter (fun e -> e <= upto) chain))
           (List.init (len + 2) (fun k -> k - 1)))

let prop_waiting_equals_coin_p1 =
  QCheck.Test.make ~count ~name:"waiting equals coin-waiting(p=1)" instance_arb
    (fun ((n, _, seed) as inst) ->
      let s = sequence_of inst in
      let master = Prng.create seed in
      let run algo = Engine.run algo (Schedule.of_sequence ~n ~sink:0 s) in
      let r1 = run Algorithms.waiting in
      let r2 = run (Doda_core.Coin_algorithms.coin_waiting master ~p:1.0) in
      r1.duration = r2.duration && (Engine.transmissions r1) = (Engine.transmissions r2))

let prop_recurrent_subset_of_underlying =
  QCheck.Test.make ~count ~name:"recurrent edges are a subset of the underlying graph"
    instance_arb (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let g = Underlying.of_sequence ~n s in
      let r = Underlying.recurrent_edges ~n s ~period:(Stdlib.max 1 (len / 2)) in
      List.for_all
        (fun (u, v) -> Static_graph.has_edge g u v)
        (Static_graph.edges r))

let prop_sink_meeting_counts_agree =
  QCheck.Test.make ~count
    ~name:"schedule sink-meeting counts agree with metrics" instance_arb
    (fun ((n, len, _) as inst) ->
      let s = sequence_of inst in
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let counts = Schedule.meets_with_sink_upto sched len in
      let times = Doda_dynamic.Metrics.sink_meeting_times s ~sink:0 in
      counts.(0) = List.length times)

let prop_post_order_is_permutation =
  QCheck.Test.make ~count ~name:"spanning tree: post order is a permutation"
    QCheck.(pair (int_range 2 40) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let g = Graph_gen.random_connected rng ~n ~extra_edges:(n / 3) in
      let t = Spanning_tree.bfs_tree g ~root:0 in
      let order = Spanning_tree.post_order t in
      List.sort compare order = List.init n (fun i -> i)
      && (match List.rev order with root :: _ -> root = 0 | [] -> false))

let prop_timeline_shape =
  QCheck.Test.make ~count ~name:"timeline: one row per node, fixed width"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let r = Engine.run Algorithms.gathering (Schedule.of_sequence ~n ~sink:0 s) in
      let width = 32 in
      let out = Doda_sim.Timeline.render ~width ~n ~sink:0 r in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      List.length lines = n + 1
      &&
      (* every node row has the bracketed fixed-width shape *)
      List.for_all
        (fun line -> String.length line >= width + 2)
        (List.tl lines))

let prop_gathering_hash_conserves =
  QCheck.Test.make ~count ~name:"variant runs obey conservation too" instance_arb
    (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      let algo = Doda_core.Gathering_variants.make Doda_core.Gathering_variants.Hash in
      let r = Engine.run algo (Schedule.of_sequence ~n ~sink:0 s) in
      List.length (Engine.transmissions r) = n - Engine.count_owners r)

let prop_flooding_equals_opt =
  (* Epidemic aggregation completes exactly when the offline one-shot
     optimum does: both are the time by which every node has a
     time-respecting journey to the sink. Two independent
     implementations of the same quantity. *)
  QCheck.Test.make ~count ~name:"flooding completion equals offline opt"
    instance_arb (fun ((n, _, _) as inst) ->
      let s = sequence_of inst in
      Doda_core.Flooding_aggregation.sink_completion ~n ~sink:0 s
      = Convergecast.opt ~n ~sink:0 s 0)

let prop_presence_roundtrip =
  QCheck.Test.make ~count ~name:"presence: snapshots match declared intervals"
    QCheck.(pair (int_range 2 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let p =
        Doda_dynamic.Presence.random rng ~n ~horizon:30 ~mean_up:3.0 ~mean_down:4.0
      in
      let ok = ref true in
      for time = 0 to Doda_dynamic.Presence.span p - 1 do
        let g = Doda_dynamic.Presence.snapshot p time in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if
              Static_graph.has_edge g u v
              <> Doda_dynamic.Presence.present p ~u ~v ~time
            then ok := false
          done
        done
      done;
      !ok)

let prop_theorem2_blocks_waiting =
  (* Any valid (n, d) with l0 = 1 blocks Waiting: u_0 delivers at the
     first interaction, and every other node's path to the sink in the
     gadget runs through a spent node or never reaches it. *)
  QCheck.Test.make ~count:100 ~name:"theorem 2 sequence blocks waiting for any valid d"
    QCheck.(pair (int_range 4 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let d = 1 + (seed mod (n - 2)) in
      let s =
        Doda_adversary.Counterexamples.theorem2_sequence ~n ~l0:1 ~d ~periods:40
      in
      let r = Engine.run Algorithms.waiting (Schedule.of_sequence ~n ~sink:0 s) in
      r.stop <> Engine.All_aggregated)

let prop_spiteful_blocks_gathering =
  QCheck.Test.make ~count:60 ~name:"spiteful blocks gathering at any n"
    QCheck.(int_range 3 20)
    (fun n ->
      let adv = Doda_adversary.Spiteful.adversary ~n ~sink:0 in
      let r, _ =
        Doda_adversary.Duel.run ~max_steps:(50 * n * n) ~n ~sink:0
          Algorithms.gathering adv
      in
      r.stop = Engine.Step_limit)

let prop_alias_in_range =
  QCheck.Test.make ~count ~name:"alias: samples stay in range"
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (k, seed) ->
      let rng = Prng.create seed in
      let w = Array.init k (fun i -> float_of_int (i + 1)) in
      let d = Prng.Alias.create w in
      let ok = ref true in
      for _ = 1 to 100 do
        let i = Prng.Alias.sample rng d in
        if i < 0 || i >= k then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Trace readers against the reference grammar                          *)

(* The trace reader as it was before the block reader, kept as the
   oracle: [String.trim] / split / [int_of_string_opt] per line, a list
   of lines for [load], [input_line] for the channel. *)
module Trace_oracle = struct
  let parse_line line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ t; u; v ] -> (
          match (int_of_string_opt t, int_of_string_opt u, int_of_string_opt v) with
          | Some t, Some u, Some v -> Some (t, u, v)
          | _ -> failwith ("Trace: malformed line: " ^ line))
      | _ -> failwith ("Trace: malformed line: " ^ line)

  let of_lines lines =
    let interactions = ref [] in
    let expected = ref 0 in
    List.iteri
      (fun lineno line ->
        match parse_line line with
        | None -> ()
        | Some (t, u, v) ->
            if t <> !expected then
              failwith
                (Printf.sprintf "Trace: line %d: expected time %d, got %d"
                   (lineno + 1) !expected t);
            incr expected;
            interactions := Interaction.make u v :: !interactions)
      lines;
    Sequence.of_list (List.rev !interactions)

  let load path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        of_lines (List.rev !lines))

  let stream_lines ~length next_line =
    let next = ref 0 in
    fun t ->
      if t <> !next then
        failwith
          (Printf.sprintf
             "Trace.stream_lines: out-of-order read (expected %d, got %d)" !next t);
      if t >= length then
        failwith "Trace.stream_lines: read past the declared length";
      let rec read () =
        match next_line () with
        | None ->
            failwith
              (Printf.sprintf
                 "Trace.stream_lines: input ended at interaction %d of %d" !next
                 length)
        | Some line -> (
            match parse_line line with
            | None -> read ()
            | Some (t', u, v) ->
                if t' <> !next then
                  failwith
                    (Printf.sprintf "Trace: expected time %d, got %d" !next t');
                Interaction.make u v)
      in
      let i = read () in
      incr next;
      i

  let stream_channel ~length ic =
    stream_lines ~length (fun () ->
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None)
end

(* One trace line, rendered from the time it should carry, and how
   many times it consumes (0 for blank and comment lines, more for a
   block of lines). The forms that the reader's canonical scan does not
   take, and the errors, are rare enough that most files parse. *)
let trace_line_gen =
  let open QCheck.Gen in
  let spaces lo = map (fun k -> String.make k ' ') (int_range lo 3) in
  let nodes =
    map (fun (u, d) -> (u, u + 1 + d)) (pair (int_range 0 9) (int_range 0 6))
  in
  let plain =
    let+ u, v = nodes and+ lead = spaces 0 and+ s1 = spaces 1
    and+ s2 = spaces 1 and+ trail = spaces 0 in
    ((fun t -> Printf.sprintf "%s%d%s%d%s%d%s" lead t s1 u s2 v trail), 1)
  in
  let rec binary x =
    if x < 2 then string_of_int x else binary (x / 2) ^ string_of_int (x mod 2)
  in
  let other_form =
    let+ u, v = nodes and+ which = int_range 0 2
    and+ write =
      oneofl
        [ Printf.sprintf "0x%x"; Printf.sprintf "+%d"; Printf.sprintf "0o%o";
          (fun x -> "0b" ^ binary x); Printf.sprintf "%019d";
          Printf.sprintf "0_%d"; Printf.sprintf "-%d" ]
    in
    ( (fun t ->
        String.concat " "
          (List.mapi
             (fun k x -> if k = which then write x else string_of_int x)
             [ t; u; v ])),
      1 )
  in
  let ends =
    let+ render, _ = plain
    and+ lead, trail =
      oneofl [ ("", "\r"); ("\r", ""); ("\t", ""); ("", "\t"); ("", "\012"); ("", " \r") ]
    in
    ((fun t -> lead ^ render t ^ trail), 1)
  in
  let skipped =
    let+ line = oneofl [ ""; "   "; "\t"; "\r"; "#"; "# a comment"; "  # 1 2 3" ] in
    ((fun _ -> line), 0)
  in
  let long_comment =
    let+ k = int_range 60_000 140_000 in
    ((fun _ -> "#" ^ String.make k 'c'), 0)
  in
  let wide =
    let+ u, v = nodes and+ k = int_range 65_000 70_000 in
    ((fun t -> Printf.sprintf "%d%s%d %d" t (String.make k ' ') u v), 1)
  in
  let block =
    let+ k = int_range 1_000 8_000 in
    ( (fun t ->
        String.concat "\n"
          (List.init k (fun i ->
               Printf.sprintf "%d %d %d" (t + i) (i mod 7) ((i mod 7) + 1 + (i mod 3))))),
      k )
  in
  let bad =
    let+ u, v = nodes
    and+ line =
      oneofl
        [ (fun t u v -> Printf.sprintf "%d\t%d %d" t u v);
          (fun t u _ -> Printf.sprintf "%d %d" t u);
          (fun t u v -> Printf.sprintf "%d %d %d 4" t u v);
          (fun t u v -> Printf.sprintf "%d %d %d" (t + 2) u v);
          (fun t u _ -> Printf.sprintf "%d %d %d" t u u);
          (fun _ _ _ -> "a b c");
          (fun t u _ -> Printf.sprintf "%d %d %d" t u (1 lsl 32));
          (fun t u _ -> Printf.sprintf "%d %d 9999999999999999999" t u) ]
    in
    ((fun t -> line t u v), 1)
  in
  frequency
    [ (60, plain); (3, other_form); (3, ends); (6, skipped); (1, long_comment);
      (1, wide); (2, block); (3, bad) ]

(* A file, the [delta] its declared length is off by, and six cut
   offsets anywhere in it for split loads. *)
let trace_file_arb =
  let gen =
    let open QCheck.Gen in
    let+ lines = list_size (frequency [ (1, return 0); (9, int_range 1 30) ]) trace_line_gen
    and+ final_newline = bool
    and+ delta = int_range (-1) 1
    and+ cuts = list_repeat 6 (float_bound_inclusive 1.0) in
    let _, rendered =
      List.fold_left
        (fun (t, acc) (render, times) -> (t + times, render t :: acc))
        (0, []) lines
    in
    let body = String.concat "\n" (List.rev rendered) in
    let contents = if final_newline && lines <> [] then body ^ "\n" else body in
    let len = float_of_int (String.length contents) in
    (contents, delta, List.map (fun c -> int_of_float (c *. len)) cuts)
  in
  QCheck.make gen ~print:(fun (contents, delta, cuts) ->
      let shown =
        if String.length contents <= 400 then contents
        else String.sub contents 0 400 ^ "..."
      in
      Printf.sprintf "delta %d, cuts %s, %d bytes: %S" delta
        (String.concat "," (List.map string_of_int cuts))
        (String.length contents) shown)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Failure m -> Error ("Failure: " ^ m)
  | exception Invalid_argument m -> Error ("Invalid_argument: " ^ m)

(* [gen 0], [gen 1], ... up to [length] or the first exception. *)
let drain gen length =
  let rec go t acc =
    if t >= length then List.rev acc
    else
      match outcome (fun () -> Interaction.to_int (gen t)) with
      | Ok _ as i -> go (t + 1) (i :: acc)
      | Error _ as e -> List.rev (e :: acc)
  in
  go 0 []

let prop_trace_readers_match_reference =
  QCheck.Test.make ~count:150 ~name:"trace: every reader = the reference grammar"
    trace_file_arb (fun (contents, delta, cuts) ->
      let path = Filename.temp_file "doda_prop" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc contents);
          let ints s = Array.to_list (Array.map Interaction.to_int (Sequence.to_array s)) in
          let expected = outcome (fun () -> ints (Trace_oracle.load path)) in
          let streamed =
            Result.map
              (fun l ->
                ( List.length l,
                  List.fold_left
                    (fun m i -> Int.max m (Interaction.v (Interaction.of_int_unchecked i)))
                    0 l,
                  l ))
              expected
          in
          (* input_line's lines: none in an empty file, and none after
             a final newline *)
          let lines =
            match List.rev (String.split_on_char '\n' contents) with
            | "" :: rest -> List.rev rest
            | all -> List.rev all
          in
          let length =
            Int.max 0
              ((match expected with
               | Ok l -> List.length l
               | Error _ -> List.length lines)
              + delta)
          in
          let feed () =
            let rest = ref lines in
            fun () ->
              match !rest with
              | [] -> None
              | l :: tl ->
                  rest := tl;
                  Some l
          in
          let on_channel stream =
            In_channel.with_open_text path (fun ic -> drain (stream ~length ic) length)
          in
          let split k =
            ( Printf.sprintf "load_split (%d ranges)" (k + 1),
              outcome (fun () ->
                  ints (Trace.load_split path (List.filteri (fun i _ -> i < k) cuts)))
              = expected )
          in
          let checks =
            [ ("load", outcome (fun () -> ints (Trace.load path)) = expected);
              ("load ~jobs:4", outcome (fun () -> ints (Trace.load ~jobs:4 path)) = expected);
              split 1;
              split 2;
              split 6;
              ( "stream",
                outcome (fun () ->
                    let gen, len, max_node = Trace.stream path in
                    (len, max_node,
                     Array.to_list (Array.init len (fun t -> Interaction.to_int (gen t)))))
                = streamed );
              ( "stream_lines",
                drain (Trace.stream_lines ~length (feed ())) length
                = drain (Trace_oracle.stream_lines ~length (feed ())) length );
              ( "stream_channel",
                on_channel Trace.stream_channel
                = on_channel Trace_oracle.stream_channel );
              ( "parse_line",
                List.for_all
                  (fun l ->
                    outcome (fun () -> Trace.parse_line l)
                    = outcome (fun () -> Trace_oracle.parse_line l))
                  (contents :: lines) ) ]
          in
          match List.filter (fun (_, ok) -> not ok) checks with
          | [] -> true
          | failed ->
              QCheck.Test.fail_reportf "differs from the reference: %s"
                (String.concat ", " (List.map fst failed))))

(* Lines of three fields of 1 to 18 random digits, leading zeros
   included, with 0 to 3 spaces on each side of each field: every
   field length the word scan can meet, and fields run together or
   past 18 digits, which the reference rejects. *)
let prop_parse_line_wide_fields =
  let open QCheck.Gen in
  let spaces = map (fun k -> String.make k ' ') (int_range 0 3) in
  let field =
    let+ lead = spaces and+ digits = string_size ~gen:numeral (int_range 1 18)
    and+ trail = spaces in
    lead ^ digits ^ trail
  in
  let line =
    let+ t = field and+ u = field and+ v = field in
    t ^ u ^ v
  in
  QCheck.Test.make ~count:3000
    ~name:"trace: parse_line = the reference on fields of 1 to 18 digits"
    (QCheck.make ~print:(Printf.sprintf "%S") line)
    (fun l ->
      outcome (fun () -> Trace.parse_line l)
      = outcome (fun () -> Trace_oracle.parse_line l))

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "trace",
        [ to_alcotest prop_trace_readers_match_reference;
          to_alcotest prop_parse_line_wide_fields ] );
      ( "model",
        List.map to_alcotest
          [
            prop_interaction_symmetric;
            prop_pair_ordered_distinct;
            prop_sequence_rev_involutive;
            prop_underlying_edges_exact;
            prop_schedule_meet_time_sound;
            prop_alias_in_range;
          ] );
      ( "temporal",
        List.map to_alcotest
          [ prop_flooding_monotone_in_horizon; prop_broadcast_convergecast_duality ] );
      ( "convergecast",
        List.map to_alcotest
          [
            prop_opt_matches_brute_force;
            prop_opt_monotone_in_start;
            prop_plan_valid;
            prop_t_chain_matches_opt_iteration;
          ] );
      ( "engine",
        List.map to_alcotest
          [
            prop_engine_conservation;
            prop_engine_termination_iff_sink_only;
            prop_stepper_equals_run;
            prop_engine_runs_validate;
            prop_plans_validate;
          ] );
      ( "exact",
        List.map to_alcotest
          [
            prop_exact_mean_finite_and_positive;
            prop_metrics_activity_conserved;
            prop_evolving_roundtrip;
          ] );
      ( "cost",
        List.map to_alcotest
          [
            prop_full_knowledge_cost_one;
            prop_cost_never_below_one;
            prop_cost_boundary_exact;
          ] );
      ( "graph",
        List.map to_alcotest
          [ prop_spanning_tree_structure; prop_post_order_is_permutation ] );
      ( "adversary",
        List.map to_alcotest
          [ prop_theorem2_blocks_waiting; prop_spiteful_blocks_gathering ] );
      ( "cross-module",
        List.map to_alcotest
          [
            prop_flooding_equals_opt;
            prop_presence_roundtrip;
            prop_waiting_equals_coin_p1;
            prop_recurrent_subset_of_underlying;
            prop_sink_meeting_counts_agree;
            prop_timeline_shape;
            prop_gathering_hash_conserves;
          ] );
    ]
