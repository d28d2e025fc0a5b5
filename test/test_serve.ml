(* The serve subsystem, end to end: wire framing and the JSON parser
   round-trip, uploads stream through pipes and sockets in one pass,
   the job queue admits/rejects/cancels deterministically, and a
   served job's results are bit-identical to the direct library call
   whatever the queue interleaving. Server tests run in-process over a
   unix-domain socket; nothing here talks to the network. *)

module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Generators = Doda_dynamic.Generators
module Trace = Doda_dynamic.Trace
module Engine = Doda_core.Engine
module Algorithms = Doda_core.Algorithms
module Experiment = Doda_sim.Experiment
module Checkpoint = Doda_sim.Checkpoint
module Workload = Doda_sim.Workload
module Job = Doda_sim.Job
module Json = Doda_sim.Json
module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics
module Prng = Doda_prng.Prng
module Frame = Doda_serve.Frame
module Protocol = Doda_serve.Protocol
module Server = Doda_serve.Server
module Client = Doda_serve.Client
module Jobq = Doda_serve.Jobq

let temp_path suffix =
  let path = Filename.temp_file "doda_serve" suffix in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Framing: write/read round-trip over a real channel.                *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun s -> Json.String s) (string_size (0 -- 16));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (0 -- 4) (value (depth - 1))));
          ( 1,
            map
              (fun l -> Json.Obj l)
              (list_size (0 -- 4)
                 (pair (string_size (0 -- 8)) (value (depth - 1)))) );
        ]
  in
  value 3

let frame_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun j -> Frame.Json j) json_gen);
        (1, map (fun s -> Frame.Data s) (string_size (0 -- 200)));
      ])

let frame_eq a b =
  match (a, b) with
  | Frame.Json x, Frame.Json y -> x = y
  | Frame.Data x, Frame.Data y -> String.equal x y
  | _ -> false

let frame_roundtrip =
  QCheck.Test.make ~count:100 ~name:"frame write/read round-trips"
    (QCheck.make QCheck.Gen.(list_size (1 -- 8) frame_gen))
    (fun frames ->
      let path = temp_path ".frames" in
      let oc = open_out_bin path in
      List.iter (Frame.write oc) frames;
      close_out oc;
      let ic = open_in_bin path in
      let rec read_all acc =
        match Frame.read ic with
        | None -> List.rev acc
        | Some (Ok f) -> read_all (f :: acc)
        | Some (Error e) -> failwith e
      in
      let back = read_all [] in
      close_in ic;
      Sys.remove path;
      List.length back = List.length frames
      && List.for_all2 frame_eq frames back)

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_one path =
  let ic = open_in_bin path in
  let r = Frame.read ic in
  close_in ic;
  r

let test_frame_errors () =
  let path = temp_path ".frames" in
  (* clean EOF at a frame boundary *)
  write_bytes path "";
  Alcotest.(check bool) "empty stream is None" true (read_one path = None);
  (* truncated header *)
  write_bytes path "J\x00\x00";
  (match read_one path with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "truncated header must be Error");
  (* truncated body *)
  write_bytes path "D\x00\x00\x00\x0aabc";
  (match read_one path with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "truncated body must be Error");
  (* unknown tag *)
  write_bytes path "Z\x00\x00\x00\x00";
  (match read_one path with
  | Some (Error e) ->
      Alcotest.(check bool) "names the tag" true
        (String.length e > 0 && String.contains e 'Z')
  | _ -> Alcotest.fail "unknown tag must be Error");
  (* oversize length prefix fails fast *)
  let oc = open_out_bin path in
  output_char oc 'D';
  output_binary_int oc (Frame.max_payload + 1);
  close_out oc;
  (match read_one path with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "oversize length must be Error");
  (* bad JSON payload *)
  write_bytes path "J\x00\x00\x00\x03{x}";
  (match read_one path with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "bad JSON must be Error");
  Sys.remove path

(* A prefix that promises the largest frame but sends 10 bytes costs
   one read step, not the 16 MiB it declared; a body that does arrive
   in full reads back across the steps. *)
let test_frame_body_grows () =
  let path = temp_path ".frames" in
  let oc = open_out_bin path in
  output_char oc 'D';
  output_binary_int oc Frame.max_payload;
  output_string oc "0123456789";
  close_out oc;
  let before = Gc.allocated_bytes () in
  let got = read_one path in
  let grown = Gc.allocated_bytes () -. before in
  (match got with
  | Some (Error e) ->
      Alcotest.(check string) "message" "truncated frame body (wanted 16777216 bytes)" e
  | _ -> Alcotest.fail "a short body must be Error");
  if grown >= 1048576. then
    Alcotest.failf "a 10-byte body allocated %.0f bytes" grown;
  List.iter
    (fun len ->
      let body = String.init len (fun i -> Char.chr (i land 255)) in
      let oc = open_out_bin path in
      Frame.write oc (Frame.Data body);
      close_out oc;
      match read_one path with
      | Some (Ok (Frame.Data d)) ->
          Alcotest.(check bool) (Printf.sprintf "%d bytes back" len) true (d = body)
      | _ -> Alcotest.failf "a %d-byte frame must read back" len)
    [ 0; 65536; 65537; 300_000 ];
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The JSON parser (round-trip of the writer, plus strictness).       *)

let json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Json.parse round-trips Json.to_string"
    (QCheck.make json_gen)
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok back -> back = j
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_json_parse_cases () =
  let ok s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let err s =
    match Json.parse s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | Error _ -> ()
  in
  Alcotest.(check bool) "int" true (ok "42" = Json.Int 42);
  Alcotest.(check bool) "float" true (ok "1.5" = Json.Float 1.5);
  Alcotest.(check bool) "exponent is float" true (ok "1e2" = Json.Float 100.0);
  Alcotest.(check bool) "escapes" true (ok {|"a\nb"|} = Json.String "a\nb");
  Alcotest.(check bool) "unicode escape" true
    (ok {|"é"|} = Json.String "\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "nested" true
    (ok {|{"a":[1,true,null]}|}
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]) ]);
  err "";
  err "{";
  err "[1,]";
  err "1 2" (* trailing garbage *);
  err "'single'";
  err "{\"a\":}";
  (* accessors *)
  let j = ok {|{"n":8,"label":"x","flag":true,"ratio":2}|} in
  Alcotest.(check (option int)) "member int" (Some 8)
    (Option.bind (Json.member "n" j) Json.to_int);
  Alcotest.(check (option string)) "member string" (Some "x")
    (Option.bind (Json.member "label" j) Json.to_string_opt);
  Alcotest.(check bool) "int widens to float" true
    (Option.bind (Json.member "ratio" j) Json.to_float_opt = Some 2.0);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Json.member "absent" j) Json.to_int)

(* ------------------------------------------------------------------ *)
(* Protocol codecs both directions.                                   *)

let request_roundtrip_cases : Protocol.request list =
  [
    Protocol.Run
      {
        algo = "waiting-greedy";
        n = 24;
        sink = 1;
        seed = 7;
        source = "markov:0.05:0.3";
        max_steps = Some 9000;
        problem = Some "gossip:4";
        stream = true;
        upload = Some { nodes = 24; length = 4096 };
      };
    Protocol.Sweep
      {
        algo = "gathering";
        ns = [ 8; 16 ];
        reps = 5;
        seed = 42;
        source = "uniform";
        max_steps = None;
        batch = true;
        stream = false;
        checkpoint = Some "/tmp/cp.txt";
      };
    Protocol.Classify
      { window = Some 32; bound = None; upload = { nodes = 16; length = 1024 } };
    Protocol.Cancel 17;
  ]

let response_roundtrip_cases : Protocol.response list =
  [
    Protocol.Accepted { job = 3; queue_depth = 2 };
    Protocol.Rejected { reason = "queue full" };
    Protocol.Started { job = 3 };
    Protocol.Point { job = 3; n = 16; cells = [ "16"; "170.75"; "48.70"; "1.000" ] };
    Protocol.Summary { job = 3; exponent = Some (1.943, 0.9437) };
    Protocol.Summary { job = 4; exponent = None };
    Protocol.Run_result
      {
        job = 3;
        stop = "all-aggregated";
        duration = Some 138;
        steps = 139;
        transmissions = 15;
        problem = None;
      };
    Protocol.Classify_result { job = 3; report = [ "temporal: yes" ] };
    Protocol.Cancelled { job = 3 };
    Protocol.Checkpointed { job = 3; path = "/tmp/cp.txt" };
    Protocol.Cancel_ack { job = 3; found = false };
    Protocol.Error_response { job = Some 3; message = "boom" };
    Protocol.Error_response { job = None; message = "bad request" };
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok back -> Alcotest.(check bool) "request round-trips" true (back = req)
      | Error e -> Alcotest.fail e)
    request_roundtrip_cases;
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok back -> Alcotest.(check bool) "response round-trips" true (back = resp)
      | Error e -> Alcotest.fail e)
    response_roundtrip_cases

let test_protocol_defaults () =
  let decode text =
    match Json.parse text with
    | Error e -> Alcotest.fail e
    | Ok j -> (
        match Protocol.request_of_json j with
        | Ok r -> r
        | Error e -> Alcotest.fail e)
  in
  (match decode {|{"cmd":"run","seed":3}|} with
  | Protocol.Run r ->
      Alcotest.(check string) "default algo" Job.default_algo r.algo;
      Alcotest.(check int) "default n" Job.default_n r.n;
      Alcotest.(check int) "default sink" Job.default_sink r.sink;
      Alcotest.(check int) "given seed" 3 r.seed;
      Alcotest.(check string) "default source" Job.default_source r.source;
      Alcotest.(check (option int)) "no step limit" None r.max_steps;
      Alcotest.(check (option string)) "default problem" None r.problem;
      Alcotest.(check bool) "default stream" false r.stream;
      Alcotest.(check bool) "no upload" true (r.upload = None)
  | _ -> Alcotest.fail "decoded to the wrong request");
  match decode {|{"cmd":"sweep"}|} with
  | Protocol.Sweep s ->
      Alcotest.(check string) "default algo" Job.default_algo s.algo;
      Alcotest.(check (list int)) "default ns" Job.default_ns s.ns;
      Alcotest.(check int) "default reps" Job.default_reps s.reps;
      Alcotest.(check int) "default seed" Job.default_seed s.seed;
      Alcotest.(check string) "default source" Job.default_source s.source;
      Alcotest.(check (option int)) "no step limit" None s.max_steps;
      Alcotest.(check bool) "default batch" false s.batch;
      Alcotest.(check bool) "default stream" false s.stream;
      Alcotest.(check (option string)) "no checkpoint" None s.checkpoint
  | _ -> Alcotest.fail "decoded to the wrong request"

(* ------------------------------------------------------------------ *)
(* One-pass trace streaming from a pipe (no seek, no second pass).    *)

let test_trace_stream_pipe () =
  let rng = Prng.create 99 in
  let n = 12 and length = 4096 in
  let seq = Generators.uniform_sequence rng ~n ~length in
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr w in
        Trace.to_channel oc seq;
        close_out oc)
      ()
  in
  let ic = Unix.in_channel_of_descr r in
  let gen = Trace.stream_channel ~length ic in
  let sched = Schedule.of_fun_chunked ~length ~n ~sink:0 gen in
  let streamed = Engine.run Algorithms.gathering sched in
  Thread.join writer;
  close_in_noerr ic;
  let direct =
    Engine.run Algorithms.gathering (Schedule.of_sequence ~n ~sink:0 seq)
  in
  Alcotest.(check bool) "pipe-streamed run = materialised run" true
    (streamed.Engine.stop = direct.Engine.stop
    && streamed.Engine.duration = direct.Engine.duration
    && streamed.Engine.steps = direct.Engine.steps
    && streamed.Engine.transmission_count = direct.Engine.transmission_count)

let test_trace_stream_lines_validates () =
  (* declared length longer than the input *)
  let lines = ref [ "0 0 1"; "1 1 2" ] in
  let next () =
    match !lines with
    | [] -> None
    | l :: rest ->
        lines := rest;
        Some l
  in
  let gen = Trace.stream_lines ~length:3 next in
  ignore (gen 0);
  ignore (gen 1);
  (match gen 2 with
  | _ -> Alcotest.fail "reading past the input must fail"
  | exception Failure _ -> ());
  (* out-of-order access *)
  let gen = Trace.stream_lines ~length:2 (fun () -> Some "0 0 1") in
  ignore (gen 0);
  match gen 0 with
  | _ -> Alcotest.fail "re-reading an index must fail"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* should_stop: graceful interruption at a replication boundary, with *)
(* the checkpoint left whole and bit-identical resume. (This is the   *)
(* hook behind both serve cancellation/drain and the CLI's Ctrl-C.)   *)

let test_should_stop_interrupt_and_resume () =
  let n = 10 and reps = 8 and seed = 2016 in
  let factory rng = Schedule.of_fun ~n ~sink:0 (Generators.uniform rng ~n) in
  let run ?checkpoint ?should_stop () =
    Experiment.run_schedule_factory ?checkpoint ?should_stop ~jobs:1
      ~replications:reps ~seed ~max_steps:(40 * n * n) ~label:"stop" ~n factory
      Algorithms.gathering
  in
  let baseline = run () in
  let path = temp_path ".ckpt" in
  let key = "stop-test v1" in
  let cp = Checkpoint.create ~path ~key in
  (* stop after 3 slots have started (jobs:1 runs them in order) *)
  let started = ref 0 in
  let counting_factory rng =
    incr started;
    factory rng
  in
  let interrupted =
    match
      Experiment.run_schedule_factory ~checkpoint:cp
        ~should_stop:(fun () -> !started >= 3)
        ~jobs:1 ~replications:reps ~seed ~max_steps:(40 * n * n) ~label:"stop"
        ~n counting_factory
        Algorithms.gathering
    with
    | _ -> false
    | exception Experiment.Interrupted -> true
  in
  Checkpoint.close cp;
  Alcotest.(check bool) "sweep raised Interrupted" true interrupted;
  let cp = Checkpoint.create ~path ~key in
  Alcotest.(check int) "exactly the started slots are flushed" 3
    (Checkpoint.completed cp);
  let resumed = run ~checkpoint:cp () in
  Checkpoint.close cp;
  Alcotest.(check (array (float 0.0))) "resumed = baseline"
    baseline.Experiment.samples resumed.Experiment.samples;
  Sys.remove path

let test_should_stop_batched () =
  let n = 10 and reps = 6 and seed = 5 in
  let factory rng = Schedule.of_fun ~n ~sink:0 (Generators.uniform rng ~n) in
  match
    Experiment.run_batched_factory
      ~should_stop:(fun () -> true)
      ~replications:reps ~seed ~max_steps:(40 * n * n) ~label:"stop" ~n factory
      Algorithms.gathering
  with
  | _ -> Alcotest.fail "batched sweep must honour should_stop"
  | exception Experiment.Interrupted -> ()

(* ------------------------------------------------------------------ *)
(* Server scenarios (in-process, unix-domain socket).                 *)

let with_server ?(jobs = 2) ?(max_queue = 8) ?(tel = Instrument.create ()) f =
  
  let sock_path = temp_path ".sock" in
  let srv =
    Server.start
      { Server.listen = Server.Unix_path sock_path; jobs; max_queue;
        telemetry = tel }
  in
  let endpoint = Server.endpoint srv in
  let result =
    try f srv endpoint
    with e ->
      Server.initiate_drain srv;
      Server.wait srv;
      raise e
  in
  Server.initiate_drain srv;
  Server.wait srv;
  (tel, result)

let counter_value tel name =
  Metrics.counter_value (Metrics.counter (Instrument.metrics tel) name)

let terminal_of responses =
  match List.rev responses with
  | last :: _ -> last
  | [] -> Alcotest.fail "no responses"

let run_request ?(n = 16) ?(seed = 3) ?upload ?problem () =
  Protocol.Run
    {
      algo = "gathering";
      n;
      sink = 0;
      seed;
      source = "uniform";
      max_steps = None;
      problem;
      stream = false;
      upload;
    }

let test_serve_run_matches_direct () =
  let tel, result =
    with_server (fun _srv endpoint ->
        let c = Client.connect endpoint in
        let r = Client.run_job c (run_request ()) in
        Client.close c;
        r)
  in
  match result with
  | Error e -> Alcotest.fail e
  | Ok responses -> (
      match terminal_of responses with
      | Protocol.Run_result r ->
          let sched =
            Workload.schedule Workload.Uniform ~n:16 ~sink:0 ~seed:3
          in
          let direct =
            Engine.run
              ~max_steps:((200 * 16 * 16) + 10_000)
              Algorithms.gathering sched
          in
          Alcotest.(check string) "stop" (Protocol.stop_string direct.Engine.stop) r.stop;
          Alcotest.(check (option int)) "duration" direct.Engine.duration r.duration;
          Alcotest.(check int) "steps" direct.Engine.steps r.steps;
          Alcotest.(check int) "transmissions" direct.Engine.transmission_count
            r.transmissions;
          Alcotest.(check int) "one job completed" 1
            (counter_value tel "serve.completed");
          Alcotest.(check int) "latency histogram saw it" 1
            (Metrics.histogram_count
               (Metrics.histogram (Instrument.metrics tel) "serve.execute_us"))
      | other ->
          Alcotest.fail
            (Json.to_string (Protocol.response_to_json other)))

let test_serve_uploaded_run_matches_direct () =
  let rng = Prng.create 11 in
  let n = 12 and length = 3000 in
  let seq = Generators.uniform_sequence rng ~n ~length in
  let trace = temp_path ".trace" in
  Trace.save trace seq;
  let _tel, result =
    with_server (fun _srv endpoint ->
        let c = Client.connect endpoint in
        let upload = Client.upload_of_trace trace in
        let r =
          Client.run_job c ~trace_file:trace
            (run_request ~n ~seed:0 ~upload ())
        in
        Client.close c;
        r)
  in
  Sys.remove trace;
  match result with
  | Error e -> Alcotest.fail e
  | Ok responses -> (
      match terminal_of responses with
      | Protocol.Run_result r ->
          let direct =
            Engine.run Algorithms.gathering
              (Schedule.of_sequence ~n ~sink:0 seq)
          in
          Alcotest.(check string) "stop" (Protocol.stop_string direct.Engine.stop) r.stop;
          Alcotest.(check (option int)) "duration" direct.Engine.duration r.duration;
          Alcotest.(check int) "steps" direct.Engine.steps r.steps
      | other ->
          Alcotest.fail (Json.to_string (Protocol.response_to_json other)))

(* A classify job whose upload body we deliberately leave unterminated:
   the executor blocks draining it, which pins the queue in a known
   state — the deterministic scaffolding for admission and drain
   tests. *)
let stalled_classify endpoint =
  let c = Client.connect endpoint in
  Client.request c
    (Protocol.Classify
       { window = None; bound = None; upload = { nodes = 2; length = 1 } });
  (match Client.read_response c with
  | Some (Ok (Protocol.Accepted _)) -> ()
  | _ -> Alcotest.fail "stalled classify not accepted");
  Client.send_data c "0 0 1\n";
  (match Client.read_response c with
  | Some (Ok (Protocol.Started _)) -> ()
  | _ -> Alcotest.fail "stalled classify not started");
  c

let release_stalled c =
  Client.finish_data c;
  (match Client.read_response c with
  | Some (Ok (Protocol.Classify_result _)) -> ()
  | other ->
      Alcotest.fail
        (match other with
        | Some (Ok r) -> Json.to_string (Protocol.response_to_json r)
        | Some (Error e) -> e
        | None -> "hang-up before classify result"));
  Client.close c

let test_serve_queue_full_rejection () =
  let tel, () =
    with_server ~max_queue:1 (fun _srv endpoint ->
        let stalled = stalled_classify endpoint in
        (* the queue is now pinned full: a second submission bounces *)
        let c2 = Client.connect endpoint in
        (match Client.run_job c2 (run_request ()) with
        | Ok responses -> (
            match terminal_of responses with
            | Protocol.Rejected { reason } ->
                Alcotest.(check bool) "reason mentions the queue" true
                  (String.length reason > 0)
            | other ->
                Alcotest.fail (Json.to_string (Protocol.response_to_json other)))
        | Error e -> Alcotest.fail e);
        Client.close c2;
        release_stalled stalled;
        (* capacity is back: the same job is accepted and runs *)
        let c3 = Client.connect endpoint in
        (match Client.run_job c3 (run_request ()) with
        | Ok responses -> (
            match terminal_of responses with
            | Protocol.Run_result _ -> ()
            | other ->
                Alcotest.fail (Json.to_string (Protocol.response_to_json other)))
        | Error e -> Alcotest.fail e);
        Client.close c3)
  in
  Alcotest.(check int) "accepted" 2 (counter_value tel "serve.accepted");
  Alcotest.(check int) "rejected" 1 (counter_value tel "serve.rejected");
  Alcotest.(check int) "completed" 2 (counter_value tel "serve.completed")

(* A job's admission slot is free by the time its terminal reply is
   written, so a client that submits its next job as soon as it reads
   that reply is never told "queue full". The second admission runs
   inside the first job's reply write, the earliest moment a client
   could see the reply. A job that raises before replying frees its
   slot too. *)
let test_jobq_slot_free_at_reply () =
  let tel = Instrument.create () in
  let q =
    Jobq.create ~max_queue:1 ~telemetry:tel
      ~exec_telemetry:(Instrument.shard tel) ()
  in
  let admit work =
    match Jobq.admit q ~kind:"run" ~work with
    | Ok ticket -> ticket
    | Error reason -> Alcotest.fail reason
  in
  let run ticket =
    Jobq.dispatch q ticket;
    Jobq.wait_done q ticket
  in
  let second = ref (Error "the first job never replied") in
  let first ~cancelled:_ ~reply _pool =
    reply (fun () ->
        second := Jobq.admit q ~kind:"run" ~work:(fun ~cancelled:_ ~reply _ ->
            reply ignore))
  in
  let raises ~cancelled:_ ~reply:_ _pool = failwith "no reply" in
  let executor =
    Domain.spawn (fun () ->
        Doda_sim.Pool.with_pool ~jobs:1 (fun pool -> Jobq.executor_loop q pool))
  in
  run (admit first);
  (match !second with
  | Ok ticket -> run ticket
  | Error reason -> Alcotest.fail ("admission at reply: " ^ reason));
  run (admit raises);
  Alcotest.(check int) "no slot held after a raise" 0 (Jobq.depth q);
  Jobq.drain q;
  Domain.join executor

let test_serve_cancel_mid_job () =
  (* A gossip run over an uploaded trace that cannot complete (only
     nodes 0 and 1 ever meet): without cancellation it would process
     all 10_000 interactions. Stall the upload midway, cancel, then
     release the rest — the engine notices the flag at its next poll
     and answers Cancelled. *)
  let length = 10_000 in
  let line t = Printf.sprintf "%d 0 1\n" t in
  let part1 = String.concat "" (List.init 2_000 line) in
  let part2 =
    String.concat "" (List.init (length - 2_000) (fun i -> line (i + 2_000)))
  in
  let tel, () =
    with_server (fun _srv endpoint ->
        let c = Client.connect endpoint in
        Client.request c
          (run_request ~n:8 ~upload:{ nodes = 8; length }
             ~problem:"gossip:4" ());
        let jid =
          match Client.read_response c with
          | Some (Ok (Protocol.Accepted { job; _ })) -> job
          | _ -> Alcotest.fail "not accepted"
        in
        Client.send_data c part1;
        (match Client.read_response c with
        | Some (Ok (Protocol.Started _)) -> ()
        | _ -> Alcotest.fail "not started");
        (* cancel from a second connection, by job id *)
        let canceller = Client.connect endpoint in
        Client.request canceller (Protocol.Cancel jid);
        (match Client.read_response canceller with
        | Some (Ok (Protocol.Cancel_ack { found; _ })) ->
            Alcotest.(check bool) "cancel found the job" true found
        | _ -> Alcotest.fail "no cancel ack");
        Client.close canceller;
        (* release the rest of the upload; the job dies at its next
           cancellation poll instead of running to the end *)
        Client.send_data c part2;
        Client.finish_data c;
        (match Client.read_response c with
        | Some (Ok (Protocol.Cancelled { job })) ->
            Alcotest.(check int) "cancelled the right job" jid job
        | other ->
            Alcotest.fail
              (match other with
              | Some (Ok r) -> Json.to_string (Protocol.response_to_json r)
              | Some (Error e) -> e
              | None -> "hang-up"));
        Client.close c)
  in
  Alcotest.(check int) "cancelled counter" 1 (counter_value tel "serve.cancelled");
  Alcotest.(check int) "nothing completed" 0 (counter_value tel "serve.completed")

let sweep_job ?checkpoint ?(batch = false) ~ns ~reps ~seed () =
  {
    Job.algo = "gathering";
    ns;
    reps;
    seed;
    source = "uniform";
    max_steps = None;
    batch;
    stream = false;
    checkpoint;
  }

let sweep_request ?checkpoint ?batch ~ns ~reps ~seed () =
  Protocol.Sweep (sweep_job ?checkpoint ?batch ~ns ~reps ~seed ())

(* The same sweep offline, through the job layer doda sweep uses. *)
let offline_sweep_cells ?checkpoint ?batch ~ns ~reps ~seed () =
  let rows = ref [] in
  let on_point ~n:_ cells = rows := cells :: !rows in
  match
    Doda_sim.Pool.with_pool ~jobs:1 (fun pool ->
        Job.sweep ~pool ~on_point
          (sweep_job ?checkpoint ?batch ~ns ~reps ~seed ()))
  with
  | Job.Done _ -> List.rev !rows
  | Job.Interrupted _ -> Alcotest.fail "offline sweep interrupted"

(* Bad job parameters come back as an Error_response carrying Job's
   one-line message — the text the CLI prints — and the server keeps
   serving. *)
let test_serve_bad_job_parameters () =
  let expect ?trace_file label req msg endpoint =
    let c = Client.connect endpoint in
    let r = Client.run_job c ?trace_file req in
    Client.close c;
    match r with
    | Error e -> Alcotest.fail e
    | Ok responses -> (
        match terminal_of responses with
        | Protocol.Error_response { message; _ } ->
            Alcotest.(check string) label msg message
        | other ->
            Alcotest.fail (Json.to_string (Protocol.response_to_json other)))
  in
  let job_error job =
    match job () with
    | _ -> Alcotest.fail "Job accepted a bad job"
    | exception Job.Rejected msg -> msg
  in
  let run_error (r : Job.run) = job_error (fun () -> Job.run r) in
  let base =
    match run_request () with Protocol.Run r -> r | _ -> assert false
  in
  (* Footprint {0,1}, {2,3}: no spanning tree. *)
  let disconnected = temp_path ".trace" in
  Out_channel.with_open_bin disconnected (fun oc ->
      output_string oc "0 0 1\n1 2 3\n");
  let bad_runs =
    [
      ("unknown algorithm", { base with algo = "nope" });
      ("bad source", { base with source = "nope" });
      ("bad problem", { base with problem = Some "gossip:x" });
      ("waiting-greedy --stream", { base with algo = "waiting-greedy"; stream = true });
      ( "tree over a disconnected trace",
        { base with algo = "tree"; n = 4; source = "trace:" ^ disconnected } );
    ]
  in
  (* A malformed upload: the trace reader refuses its second line. *)
  let bad_lines = [ "0 0 1"; "x" ] in
  let bad_trace = temp_path ".trace" in
  Out_channel.with_open_bin bad_trace (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) bad_lines);
  let upload = { Job.nodes = 8; length = 2 } in
  let bad_upload = { base with upload = Some upload } in
  (* A header declaring 2^40 interactions over a 3-line body: the
     server must not allocate the declared length up front. *)
  let short_trace = temp_path ".trace" in
  Out_channel.with_open_bin short_trace (fun oc ->
      output_string oc "0 0 1\n1 1 2\n2 0 1\n");
  let huge = { Job.nodes = 8; length = 1 lsl 40 } in
  let upload_error =
    let rest = ref bad_lines in
    let next () =
      match !rest with
      | [] -> None
      | l :: tl ->
          rest := tl;
          Some l
    in
    job_error (fun () -> Job.run ~lines:next bad_upload)
  in
  let tel, () =
    with_server (fun _srv endpoint ->
        expect "run -n 1" (run_request ~n:1 ()) (run_error { base with n = 1 })
          endpoint;
        expect "malformed upload run" ~trace_file:bad_trace
          (Protocol.Run bad_upload) upload_error endpoint;
        expect "malformed upload classify" ~trace_file:bad_trace
          (Protocol.Classify { window = None; bound = None; upload })
          (job_error (fun () -> Job.reading (fun () -> Trace.load bad_trace)))
          endpoint;
        expect "classify upload far shorter than declared" ~trace_file:short_trace
          (Protocol.Classify { window = None; bound = None; upload = huge })
          "Trace.stream_lines: input ended at interaction 3 of 1099511627776"
          endpoint;
        expect "classify window 0" ~trace_file:short_trace
          (Protocol.Classify
             { window = Some 0; bound = None; upload = { upload with length = 3 } })
          (job_error (fun () ->
               Job.classify ~window:0 ~nodes:8 (Trace.load short_trace)))
          endpoint;
        expect "sweep --reps 0"
          (sweep_request ~ns:[ 8 ] ~reps:0 ~seed:1 ())
          (job_error (fun () ->
               Doda_sim.Pool.with_pool ~jobs:1 (fun pool ->
                   Job.sweep ~pool ~on_point:(fun ~n:_ _ -> ())
                     (sweep_job ~ns:[ 8 ] ~reps:0 ~seed:1 ()))))
          endpoint;
        List.iter
          (fun (label, r) -> expect label (Protocol.Run r) (run_error r) endpoint)
          bad_runs;
        let c = Client.connect endpoint in
        (match Client.run_job c (run_request ()) with
        | Ok responses -> (
            match terminal_of responses with
            | Protocol.Run_result _ -> ()
            | _ -> Alcotest.fail "good job after bad ones did not run")
        | Error e -> Alcotest.fail e);
        Client.close c)
  in
  List.iter Sys.remove [ bad_trace; short_trace; disconnected ];
  Alcotest.(check int) "bad jobs count as failed"
    (6 + List.length bad_runs)
    (counter_value tel "serve.failed")

(* A long-lived server keeps nothing per finished connection: hundreds
   of sequential clients leave no live connection behind and do not
   grow the heap. *)
let test_serve_no_per_connection_state () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let _tel, () =
    with_server ~jobs:1 ~tel:Instrument.disabled (fun srv endpoint ->
        let serve count =
          for _ = 1 to count do
            let c = Client.connect endpoint in
            (match Client.run_job c (run_request ~n:6 ()) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            Client.close c
          done;
          (* A connection thread releases its slot just after its last
             write, which the client may already have read. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Server.connections srv > 0 && Unix.gettimeofday () < deadline do
            Thread.delay 0.001
          done;
          Alcotest.(check int) "no live connection left" 0
            (Server.connections srv)
        in
        serve 100;
        let before = live_words () in
        serve 300;
        let grown = live_words () - before in
        if grown >= 300 then
          Alcotest.failf "heap grew by %d words over 300 connections" grown)
  in
  ()

let test_serve_concurrent_clients_bit_identical () =
  let specs = [ (5, [ 8; 12 ]); (6, [ 8; 12 ]); (7, [ 10; 14 ]) ] in
  let _tel, results =
    with_server ~jobs:2 (fun _srv endpoint ->
        let worker (seed, ns) =
          let cells = ref [] in
          let c = Client.connect endpoint in
          let outcome =
            Client.run_job c
              ~on_response:(function
                | Protocol.Point { cells = row; _ } -> cells := row :: !cells
                | _ -> ())
              (sweep_request ~ns ~reps:4 ~seed ())
          in
          Client.close c;
          match outcome with
          | Ok responses -> (
              match terminal_of responses with
              | Protocol.Summary _ -> List.rev !cells
              | other ->
                  Alcotest.fail
                    (Json.to_string (Protocol.response_to_json other)))
          | Error e -> Alcotest.fail e
        in
        let slots = Array.make (List.length specs) [] in
        let threads =
          List.mapi
            (fun i spec -> Thread.create (fun () -> slots.(i) <- worker spec) ())
            specs
        in
        List.iter Thread.join threads;
        Array.to_list slots)
  in
  List.iteri
    (fun i ((seed, ns), served) ->
      let expected = offline_sweep_cells ~ns ~reps:4 ~seed () in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "client %d: served = direct, cell for cell" i)
        expected served)
    (List.combine specs results)

(* A batched sweep on a jobs-2 server runs its points across the
   pool; its Point frames still come in ns order, the slowest point
   first, and equal the offline sweep's rows. *)
let test_serve_batched_points_in_order () =
  let ns = [ 400; 16; 24; 32; 40; 48 ] in
  let _tel, points =
    with_server ~jobs:2 (fun _srv endpoint ->
        let points = ref [] in
        let c = Client.connect endpoint in
        let outcome =
          Client.run_job c
            ~on_response:(function
              | Protocol.Point { n; cells; _ } -> points := (n, cells) :: !points
              | _ -> ())
            (sweep_request ~batch:true ~ns ~reps:5 ~seed:9 ())
        in
        Client.close c;
        (match outcome with
        | Ok responses -> (
            match terminal_of responses with
            | Protocol.Summary _ -> ()
            | other ->
                Alcotest.fail (Json.to_string (Protocol.response_to_json other)))
        | Error e -> Alcotest.fail e);
        List.rev !points)
  in
  Alcotest.(check (list int)) "Point frames in ns order" ns (List.map fst points);
  Alcotest.(check (list (list string)))
    "served = offline, cell for cell"
    (offline_sweep_cells ~batch:true ~ns ~reps:5 ~seed:9 ())
    (List.map snd points)

let test_serve_drain_on_sigterm_checkpoints () =
  let ns = [ 10; 14 ] and reps = 5 and seed = 2016 in
  let ckpt = temp_path ".ckpt" in
  let tel = Instrument.create () in
  let sock_path = temp_path ".sock" in
  let srv =
    Server.start
      { Server.listen = Server.Unix_path sock_path; jobs = 2; max_queue = 8;
        telemetry = tel }
  in
  let endpoint = Server.endpoint srv in
  (* wire SIGTERM exactly as the CLI does *)
  let term_requested = Atomic.make false in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Atomic.set term_requested true));
  (* pin the executor on a stalled upload, queue the checkpointed sweep
     behind it, then SIGTERM: the sweep starts after the drain flag is
     already up, stops at its first replication boundary, flushes and
     reports its checkpoint *)
  let stalled = stalled_classify endpoint in
  let sweep_result = ref (Error "sweep thread never ran") in
  let sweeper =
    Thread.create
      (fun () ->
        let c = Client.connect endpoint in
        sweep_result :=
          Client.run_job c (sweep_request ~checkpoint:ckpt ~ns ~reps ~seed ());
        Client.close c)
      ()
  in
  (* wait until the sweep is queued (admitted) behind the stalled job *)
  let rec await_depth tries =
    if Server.queue_depth srv >= 2 then ()
    else if tries = 0 then Alcotest.fail "sweep never queued"
    else begin
      Thread.delay 0.02;
      await_depth (tries - 1)
    end
  in
  await_depth 250;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let rec await_term tries =
    if Atomic.get term_requested then ()
    else if tries = 0 then Alcotest.fail "SIGTERM never delivered"
    else begin
      Thread.delay 0.02;
      await_term (tries - 1)
    end
  in
  await_term 250;
  Server.initiate_drain srv;
  release_stalled stalled;
  Thread.join sweeper;
  Server.wait srv;
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  (match !sweep_result with
  | Error e -> Alcotest.fail e
  | Ok responses -> (
      match terminal_of responses with
      | Protocol.Checkpointed { path; _ } ->
          Alcotest.(check bool) "checkpoint file exists" true (Sys.file_exists path)
      | other ->
          Alcotest.fail (Json.to_string (Protocol.response_to_json other))));
  Alcotest.(check int) "both jobs were accepted" 2
    (counter_value tel "serve.accepted");
  (* the flushed checkpoint resumes under the offline sweep: same key,
     same slots, bit-identical table *)
  let resumed = offline_sweep_cells ~checkpoint:ckpt ~ns ~reps ~seed () in
  let baseline = offline_sweep_cells ~ns ~reps ~seed () in
  Alcotest.(check (list (list string))) "resumed offline = uninterrupted"
    baseline resumed;
  Sys.remove ckpt

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          QCheck_alcotest.to_alcotest frame_roundtrip;
          Alcotest.test_case "malformed frames are errors" `Quick
            test_frame_errors;
          Alcotest.test_case "a body is read as it arrives" `Quick
            test_frame_body_grows;
        ] );
      ( "json-parser",
        [
          QCheck_alcotest.to_alcotest json_roundtrip;
          Alcotest.test_case "parse cases and accessors" `Quick
            test_json_parse_cases;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request/response codecs round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "decoding applies CLI defaults" `Quick
            test_protocol_defaults;
        ] );
      ( "trace-stream",
        [
          Alcotest.test_case "one-pass stream from a pipe" `Quick
            test_trace_stream_pipe;
          Alcotest.test_case "stream_lines validates its input" `Quick
            test_trace_stream_lines_validates;
        ] );
      ( "should-stop",
        [
          Alcotest.test_case "interrupt flushes, resume is bit-identical"
            `Quick test_should_stop_interrupt_and_resume;
          Alcotest.test_case "batched sweep honours should_stop" `Quick
            test_should_stop_batched;
        ] );
      ( "server",
        [
          Alcotest.test_case "served run = direct engine call" `Quick
            test_serve_run_matches_direct;
          Alcotest.test_case "uploaded trace run = direct engine call" `Quick
            test_serve_uploaded_run_matches_direct;
          Alcotest.test_case "admission control rejects past max-queue" `Quick
            test_serve_queue_full_rejection;
          Alcotest.test_case "a job frees its slot before its reply" `Quick
            test_jobq_slot_free_at_reply;
          Alcotest.test_case "cancellation interrupts a running job" `Quick
            test_serve_cancel_mid_job;
          Alcotest.test_case "concurrent clients, bit-identical results" `Quick
            test_serve_concurrent_clients_bit_identical;
          Alcotest.test_case "batched sweep points in ns order" `Quick
            test_serve_batched_points_in_order;
          Alcotest.test_case "bad job parameters get a one-line error" `Quick
            test_serve_bad_job_parameters;
          Alcotest.test_case "no per-connection state outlives a connection"
            `Quick test_serve_no_per_connection_state;
          Alcotest.test_case "drain on SIGTERM leaves a resumable checkpoint"
            `Quick test_serve_drain_on_sigterm_checkpoints;
        ] );
    ]
