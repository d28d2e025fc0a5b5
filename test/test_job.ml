(* The job layer shared by the CLI and doda serve: a job that cannot
   run raises Job.Rejected with its one-line message — never another
   exception — before anything runs (an upload's lines as they are
   read), and the jobs next to the rejected ones still run. Messages
   are pinned verbatim: both front ends print or send exactly these
   texts. *)

module Job = Doda_sim.Job
module Trace = Doda_dynamic.Trace
module Generators = Doda_dynamic.Generators
module Prng = Doda_prng.Prng

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
    ]
