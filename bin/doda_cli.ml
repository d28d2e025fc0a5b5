(* doda — command-line front end for the distributed online data
   aggregation library.

     doda run      one algorithm against one adversary, full report
     doda duel     an algorithm against an adaptive adversary (Thm 1/3)
     doda sweep    scaling study across n, with exponent fit
     doda generate write an interaction trace to a file
     doda analyze  offline analysis of a trace (connectivity, optimum)
     doda classify place a trace in the TVG class hierarchy
     doda list     available algorithms, problems and adversaries *)

module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Trace = Doda_dynamic.Trace
module Underlying = Doda_dynamic.Underlying
module Temporal = Doda_dynamic.Temporal
module Tvg_class = Doda_dynamic.Tvg_class
module Static_graph = Doda_graph.Static_graph
module Traversal = Doda_graph.Traversal
module Engine = Doda_core.Engine
module Problem = Doda_core.Problem
module Gossip = Doda_core.Gossip
module Validate = Doda_core.Validate
module Convergecast = Doda_core.Convergecast
module Cost = Doda_core.Cost
module Algorithms = Doda_core.Algorithms
module Theory = Doda_core.Theory
module Duel = Doda_adversary.Duel
module Table = Doda_sim.Table
module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Jobs (resolution, checks and defaults live in Doda_sim.Job)         *)

module Job = Doda_sim.Job
module Workload = Doda_sim.Workload

(* A rejected job, or an input file that cannot be read, prints Job's
   one-line message and exits 2 — the message doda serve sends. *)
let rejecting f =
  try f ()
  with Job.Rejected msg ->
    prerr_endline msg;
    exit 2

(* --metrics / --trace: shared by run and sweep. Telemetry is created
   only when one of the flags asks for it; otherwise every code path
   sees the shared disabled handle. [resources] turns on the memory
   gauges — single runs only: their values are not deterministic
   across job counts, and sweep's --metrics block is diffed at several
   --jobs in CI. A sweep sizes its span ring to the spans it records
   (Job.sweep_span_capacity). *)
let telemetry_of ?(resources = false) ?span_capacity ~metrics ~trace () =
  if metrics || trace <> None then
    Instrument.create ~resources ?span_capacity ()
  else Instrument.disabled

let stream_flag =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:
          "Stream the schedule through a fixed-size block (bounded memory at \
           any horizon) instead of materialising it. Results are identical; \
           meet-time oracles and offline prefix analysis are unavailable. A \
           sweep without $(b,--batch) already streams every replication \
           whose algorithm needs no knowledge, so there $(b,--stream) only \
           rejects the algorithms that read the schedule again.")

let emit_trace tel = function
  | None -> ()
  | Some path ->
      Instrument.write_trace ~process_name:"doda" tel path;
      Format.printf "trace written to %s@." path;
      let dropped = Doda_obs.Span.dropped (Instrument.spans tel) in
      if dropped > 0 then
        Format.printf "(span ring full: the %d oldest spans were dropped)@."
          dropped

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print telemetry counters and span timings after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file (load it in Perfetto or \
           chrome://tracing).")

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let algo_arg =
  let doc =
    "Algorithm: " ^ String.concat " | " Algorithms.names ^ "."
  in
  Arg.(value & opt string Job.default_algo & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let n_arg =
  Arg.(value & opt int Job.default_n & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg =
  Arg.(value & opt int Job.default_seed & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let sink_arg =
  Arg.(value & opt int Job.default_sink & info [ "sink" ] ~docv:"SINK" ~doc:"Sink node id.")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Interaction budget.")

let source_arg =
  let doc = "Interaction source: " ^ Workload.syntax ^ "." in
  Arg.(value & opt string Job.default_source & info [ "s"; "source" ] ~docv:"SOURCE" ~doc)

(* ------------------------------------------------------------------ *)
(* doda run                                                            *)

let gossip_report ~problem ~stream sched result =
  let n = Schedule.n sched in
  Format.printf "problem: %s@." (Problem.describe problem);
  Format.printf "%a@." Gossip.pp_result result;
  (match Doda_sim.Analysis.mean_coverage_time ~n ~problem result with
  | Some m -> Format.printf "mean coverage time: %.1f@." m
  | None -> Format.printf "mean coverage time: -@.");
  if stream then
    (* Coverage times above are fine: Analysis replays the transfer
       log, never the schedule prefix. Only the validator needs the
       played interactions themselves. *)
    Format.printf
      "log validation skipped (--stream keeps no prefix; coverage times \
       replay the transfer log)@."
  else begin
    let prefix = Schedule.prefix sched (Schedule.materialized sched) in
    match Validate.problem problem ~n prefix result.Gossip.log with
    | [] -> Format.printf "transfer log validates: yes@."
    | v :: _ ->
        Format.printf "transfer log validates: NO (%a)@." Validate.pp_violation v
  end

let aggregation_report ~tel ~sink ~stream ~timeline sched algo result =
  let n = Schedule.n sched in
  Format.printf "algorithm: %s@." algo.Doda_core.Algorithm.name;
  Format.printf "%a@." Engine.pp_result result;
  if stream then
    (* A streamed schedule keeps only its current block: the played
       prefix no longer exists to analyse — which is the point. *)
    Format.printf
      "offline prefix analysis skipped (--stream keeps no prefix)@."
  else begin
    (* The interactions the run played, not the materialised prefix: a
       meet-time oracle may have read past the run's end. *)
    let prefix = Schedule.prefix sched result.Engine.steps in
    Instrument.with_span tel "analysis/offline-opt" (fun () ->
        match Convergecast.opt ~n ~sink prefix 0 with
        | Some o ->
            Format.printf "offline optimum on played prefix: %d@." (o + 1)
        | None ->
            Format.printf "offline optimum on played prefix: infeasible@.");
    let cost =
      Instrument.with_span tel "analysis/cost" (fun () ->
          Cost.of_result ~n ~sink prefix result)
    in
    Format.printf "cost: %a@." Cost.pp cost
  end;
  if timeline then print_string (Doda_sim.Timeline.render ~n ~sink result)

let run_cmd =
  let run algo n sink seed source max_steps timeline stream metrics trace
      problem =
    rejecting @@ fun () ->
    let tel = telemetry_of ~resources:true ~metrics ~trace () in
    let sched, outcome =
      Job.run ~telemetry:tel ~jobs:(Doda_sim.Pool.default_jobs ())
        { Job.algo; n; sink; seed; source; max_steps; problem = Some problem;
          stream; upload = None }
    in
    (match outcome with
    | Job.Disseminated (problem, result) ->
        gossip_report ~problem ~stream sched result
    | Job.Aggregated (algo, result) ->
        aggregation_report ~tel ~sink ~stream ~timeline sched algo result);
    if stream then Instrument.record_chunk_stats tel sched;
    if metrics then print_string (Instrument.summary tel);
    emit_trace tel trace
  in
  let timeline =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Draw an ASCII execution timeline.")
  in
  let problem_arg =
    Arg.(
      value & opt string Job.default_problem
      & info [ "problem" ] ~docv:"PROBLEM"
          ~doc:("Problem to solve: " ^ Problem.syntax ^ ". gossip:K runs k-token \
                 all-to-all dissemination (ignores --algorithm)."))
  in
  let term = Term.(const run $ algo_arg $ n_arg $ sink_arg $ seed_arg $ source_arg
                   $ max_steps_arg $ timeline $ stream_flag $ metrics_flag
                   $ trace_arg $ problem_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one problem against one interaction source.") term

(* ------------------------------------------------------------------ *)
(* doda duel                                                           *)

let duel_cmd =
  let duel algo_name which horizon n_opt =
    rejecting @@ fun () ->
    let d = Job.duel ~adversary:which ~n:n_opt algo_name in
    let n = d.nodes in
    let result, played =
      Duel.run ?knowledge:d.knowledge ~max_steps:horizon ~n ~sink:0 d.algorithm
        d.adversary
    in
    Format.printf "adversary: %s (n=%d)@." d.adversary.Doda_adversary.Adversary.name n;
    Format.printf "%a@." Engine.pp_result result;
    let possible = Cost.convergecasts_within ~n ~sink:0 played ~upto:(horizon - 1) in
    Format.printf "optimal convergecasts possible meanwhile: %d@." possible;
    Format.printf "cost: %a@." Cost.pp (Cost.of_result ~n ~sink:0 played result)
  in
  let which =
    Arg.(
      value & opt string "thm1"
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:"Adaptive adversary: thm1 | thm3 | spiteful.")
  in
  let horizon =
    Arg.(value & opt int 2000 & info [ "horizon" ] ~docv:"H" ~doc:"Interaction budget.")
  in
  let term = Term.(const duel $ algo_arg $ which $ horizon $ n_arg) in
  Cmd.v
    (Cmd.info "duel"
       ~doc:"Play an algorithm against an adaptive adversary from the paper's proofs.")
    term

(* ------------------------------------------------------------------ *)
(* doda sweep                                                          *)

let sweep_cmd =
  let sweep algo ns reps seed source max_steps csv jobs stream batch
      checkpoint metrics trace =
    rejecting @@ fun () ->
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be >= 1, got %d\n" jobs;
      exit 2
    end;
    let job =
      { Job.algo; ns; reps; seed; source; max_steps; batch; stream; checkpoint }
    in
    let tel =
      telemetry_of ~span_capacity:(Job.sweep_span_capacity job) ~metrics
        ~trace ()
    in
    (* With a checkpoint, Ctrl-C is graceful: the handler flips a flag,
       the sweep stops at the next replication boundary with every
       finished slot already flushed, and we exit cleanly with a resume
       hint. Without one there is nothing to save — default SIGINT. *)
    let stop = Atomic.make false in
    if checkpoint <> None then
      Sys.set_signal Sys.sigint
        (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    let t = Table.create ~header:Job.sweep_header in
    (* One pool for the whole sweep: a scalar sweep fans each point's
       replications over it, a batched one its points. Seeds are
       pre-split sequentially and rows come in ns order, so the table
       is identical whatever --jobs is. *)
    let outcome =
      Doda_sim.Pool.with_pool ~jobs @@ fun pool ->
      Job.sweep ~pool ~telemetry:tel
        ~should_stop:(fun () -> Atomic.get stop)
        ~on_point:(fun ~n:_ cells -> Table.add_row t cells)
        job
    in
    (match outcome with
    | Job.Interrupted path ->
        Format.printf
          "interrupted — finished replications flushed to %s; rerun the same \
           command to resume@."
          (Option.value path ~default:"the checkpoint")
    | Job.Done exponent ->
        Table.print t;
        (match csv with
        | Some path ->
            Doda_sim.Csv.write path ~header:(Table.header_row t) (Table.rows t);
            Format.printf "csv written to %s@." path
        | None -> ());
        Option.iter
          (fun (slope, r2) ->
            Format.printf "log-log exponent: %.3f (r2 = %.4f)@." slope r2)
          exponent);
    (* Counters only, no span timings: with fixed seeds this block is
       byte-identical at any --jobs (the determinism CI check diffs
       it), while wall-clock spans never are. *)
    if metrics then print_string (Metrics.summary (Instrument.metrics tel));
    emit_trace tel trace
  in
  let ns =
    Arg.(
      value
      & opt (list int) Job.default_ns
      & info [ "ns" ] ~docv:"N,N,.." ~doc:"Node counts to sweep.")
  in
  let reps =
    Arg.(value & opt int Job.default_reps & info [ "reps" ] ~docv:"R" ~doc:"Replications per point.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let default_jobs =
    try Doda_sim.Pool.default_jobs ()
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 1
  in
  let jobs =
    Arg.(
      value
      & opt int default_jobs
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Worker domains for the replications (default: \\$(b,DODA_JOBS) or \
             the recommended domain count). Results are identical at any job \
             count.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Record each finished replication to $(docv) and resume from it: \
             an interrupted sweep restarted with the same parameters skips \
             finished slots and produces the bit-identical table. Relative \
             paths honour $(b,DODA_SCRATCH).")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Lockstep batched sweep: draw ONE schedule per point and run all \
             replications over it (the adversary-replay experiment; a \
             different measurement from the default's fresh schedule per \
             replication). Every named algorithm is deterministic, so a \
             point is one run repeated $(i,R) times — executed once — and \
             its stderr is 0. The points run across the worker domains, \
             each on one domain. Works with $(b,--stream) in bounded \
             memory and needs a batch-capable algorithm.")
  in
  let term =
    Term.(const sweep $ algo_arg $ ns $ reps $ seed_arg $ source_arg
          $ max_steps_arg $ csv $ jobs
          $ stream_flag $ batch $ checkpoint $ metrics_flag $ trace_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Scaling study of an algorithm under the uniform randomized adversary.")
    term

(* ------------------------------------------------------------------ *)
(* doda generate                                                       *)

let generate_cmd =
  let generate n sink seed source length output =
    rejecting @@ fun () ->
    let sched = Job.schedule source ~n ~sink ~seed in
    let s = Schedule.prefix sched length in
    Trace.save output s;
    Format.printf "wrote %d interactions on %d nodes to %s@." (Sequence.length s)
      (Schedule.n sched) output
  in
  let length =
    Arg.(value & opt int 10_000 & info [ "length" ] ~docv:"LEN" ~doc:"Trace length.")
  in
  let output =
    Arg.(
      value & opt string "trace.txt"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let term =
    Term.(const generate $ n_arg $ sink_arg $ seed_arg $ source_arg $ length $ output)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate an interaction trace file.") term

(* ------------------------------------------------------------------ *)
(* doda analyze                                                        *)

(* analyze and classify read the whole trace, on as many domains as a
   sweep would use. *)
let read_trace path =
  Job.reading (fun () -> Trace.load ~jobs:(Doda_sim.Pool.default_jobs ()) path)

let analyze_cmd =
  let analyze path sink =
    rejecting @@ fun () ->
    let s = read_trace path in
    let n = Sequence.max_node s + 1 in
    if sink < 0 || sink >= n then
      raise
        (Job.Rejected
           (if sink < 0 then Printf.sprintf "sink must be >= 0, got %d" sink
            else
              Printf.sprintf "sink must be < %d, the trace's node count, got %d"
                n sink));
    let len = Sequence.length s in
    Format.printf "trace: %s@.nodes: %d, interactions: %d@." path n len;
    let g = Underlying.of_sequence ~n s in
    Format.printf "underlying graph: %d edges, %s@."
      (Static_graph.edge_count g)
      (if Traversal.connected g then "connected" else "disconnected");
    if Static_graph.is_tree g then Format.printf "underlying graph is a tree@.";
    Format.printf "temporally connected: %b@." (Temporal.temporally_connected ~n s);
    (match Temporal.broadcast_completion ~n ~src:sink s with
    | Some t -> Format.printf "broadcast from sink completes at: %d@." t
    | None -> Format.printf "broadcast from sink: incomplete@.");
    (match Convergecast.opt ~n ~sink s 0 with
    | Some t -> Format.printf "optimal convergecast ends at: %d@." t
    | None -> Format.printf "optimal convergecast: infeasible@.");
    let chain = Convergecast.t_chain ~n ~sink s in
    Format.printf "successive convergecasts possible: %d@." (List.length chain);
    print_string (Doda_dynamic.Metrics.summary ~n ~sink s);
    let window = Stdlib.max 1 (len / 10) in
    let eg = Doda_dynamic.Evolving_graph.of_interactions ~n ~window s in
    let connected =
      List.length
        (List.filter
           (fun i ->
             Traversal.connected (Doda_dynamic.Evolving_graph.snapshot eg i))
           (List.init (Doda_dynamic.Evolving_graph.length eg) (fun i -> i)))
    in
    Format.printf "connected windows (size %d): %d/%d@." window connected
      (Doda_dynamic.Evolving_graph.length eg)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let term = Term.(const analyze $ path $ sink_arg) in
  Cmd.v (Cmd.info "analyze" ~doc:"Offline analysis of an interaction trace.") term

(* ------------------------------------------------------------------ *)
(* doda classify                                                       *)

let classify_cmd =
  let classify path window bound =
    rejecting @@ fun () ->
    let report = Job.classify ?window ?bound (read_trace path) in
    Format.printf "trace: %s@." path;
    List.iter (Format.printf "%s@.") report
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let window =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"W"
          ~doc:"Also check membership in t-interval:$(docv) explicitly.")
  in
  let bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound" ] ~docv:"B"
          ~doc:"Also check membership in bounded-recurrent:$(docv) explicitly.")
  in
  let term = Term.(const classify $ path $ window $ bound) in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Place an interaction trace in the TVG class hierarchy (temporal, \
          T-interval connectivity, recurrent, time-bounded recurrent).")
    term

(* ------------------------------------------------------------------ *)
(* doda serve / doda client                                            *)

module Server = Doda_serve.Server
module Client = Doda_serve.Client
module Protocol = Doda_serve.Protocol
module Json = Doda_sim.Json

let port_arg =
  Arg.(
    value & opt int 7464
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 (0 picks an ephemeral port).")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen/connect on a unix-domain socket instead of TCP.")

let serve_cmd =
  let serve port socket jobs max_queue metrics trace =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be >= 1, got %d\n" jobs;
      exit 2
    end;
    (* The server's own counters are always on (its summary and the
       drain line depend on them); --metrics controls printing. *)
    let tel = Instrument.create () in
    let listen =
      match socket with
      | Some path -> Server.Unix_path path
      | None -> Server.Tcp ("127.0.0.1", port)
    in
    let srv = Server.start { listen; jobs; max_queue; telemetry = tel } in
    (match Server.endpoint srv with
    | Server.Tcp (host, p) ->
        Format.printf "listening on %s:%d (jobs=%d, max-queue=%d)@." host p
          jobs max_queue
    | Server.Unix_path p ->
        Format.printf "listening on %s (jobs=%d, max-queue=%d)@." p jobs
          max_queue);
    (* Graceful drain on SIGTERM/SIGINT. The handler only flips an
       atomic; a watchdog thread does the actual drain so no locking
       happens in signal context. *)
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    let _watchdog =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            Thread.delay 0.1
          done;
          Server.initiate_drain srv)
        ()
    in
    Server.wait srv;
    let m = Instrument.metrics tel in
    let c name = Metrics.counter_value (Metrics.counter m name) in
    Format.printf "drained cleanly: %d completed, %d cancelled, %d failed, %d \
                   rejected@."
      (c "serve.completed") (c "serve.cancelled") (c "serve.failed")
      (c "serve.rejected");
    if metrics then print_string (Instrument.summary tel);
    emit_trace tel trace
  in
  let jobs =
    Arg.(
      value
      & opt int
          (try Doda_sim.Pool.default_jobs () with Invalid_argument _ -> 1)
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:"Worker domains in the executor's pool.")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: jobs in flight (queued + running) before new \
             submissions are rejected.")
  in
  let term =
    Term.(const serve $ port_arg $ socket_arg $ jobs $ max_queue $ metrics_flag
          $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived simulation service: a job queue with admission \
          control and live result streaming over TCP or a unix socket. Drains \
          gracefully on SIGTERM/SIGINT (checkpointed sweeps flush and report \
          their checkpoint).")
    term

let client_cmd =
  let client port socket job_file csv_out cancel_id =
    rejecting @@ fun () ->
    let connect () =
      let endpoint =
        match socket with
        | Some path -> Server.Unix_path path
        | None -> Server.Tcp ("127.0.0.1", port)
      in
      try Client.connect endpoint
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
        exit 1
    in
    match cancel_id with
    | Some id -> (
        let conn = connect () in
        Client.request conn (Protocol.Cancel id);
        match Client.read_response conn with
        | Some (Ok (Protocol.Cancel_ack { job; found })) ->
            Format.printf "cancel %d: %s@." job
              (if found then "flagged" else "no such job in flight");
            Client.close conn
        | Some (Ok _) | Some (Error _) | None ->
            Printf.eprintf "unexpected reply to cancel\n";
            exit 1)
    | None ->
        let job_file =
          match job_file with
          | Some f -> f
          | None ->
              Printf.eprintf "need a JOBFILE (or --cancel ID)\n";
              exit 2
        in
        (* The job file, and the trace it names, are read and checked
           before connecting. *)
        let raw =
          Job.reading (fun () ->
              In_channel.with_open_bin job_file In_channel.input_all)
        in
        let j =
          match Json.parse raw with
          | Ok j -> j
          | Error e ->
              Printf.eprintf "bad job file %s: %s\n" job_file e;
              exit 2
        in
        (* trace_file is client-side only: resolve the upload header
           locally (validating O(1)-memory pass) and stream the file
           after acceptance. *)
        let trace_file =
          Option.bind (Json.member "trace_file" j) Json.to_string_opt
        in
        let j =
          match (trace_file, j) with
          | Some tf, Json.Obj fields when Json.member "upload" j = None ->
              let u = Job.reading (fun () -> Client.upload_of_trace tf) in
              Json.Obj (fields @ [ ("upload", Protocol.upload_to_json u) ])
          | _ -> j
        in
        let req =
          match Protocol.request_of_json j with
          | Ok r -> r
          | Error e ->
              Printf.eprintf "bad job file %s: %s\n" job_file e;
              exit 2
        in
        let conn = connect () in
        let csv_rows = ref [] in
        let on_response = function
          | Protocol.Accepted { job; queue_depth } ->
              Format.printf "job %d accepted (queue depth %d)@." job queue_depth
          | Protocol.Rejected { reason } ->
              Format.printf "rejected: %s@." reason
          | Protocol.Started { job } -> Format.printf "job %d started@." job
          | Protocol.Point { n = _; cells; _ } ->
              csv_rows := cells :: !csv_rows;
              Format.printf "point: %s@." (String.concat "  " cells)
          | Protocol.Summary { exponent; _ } -> (
              match exponent with
              | Some (slope, r2) ->
                  Format.printf "log-log exponent: %.3f (r2 = %.4f)@." slope r2
              | None -> Format.printf "sweep done@.")
          | Protocol.Run_result r ->
              Format.printf "stop: %s@." r.stop;
              (match r.duration with
              | Some d -> Format.printf "duration: %d@." d
              | None -> Format.printf "duration: -@.");
              Format.printf "steps: %d@.transmissions: %d@." r.steps
                r.transmissions;
              Option.iter (Format.printf "problem: %s@.") r.problem
          | Protocol.Classify_result { report; _ } ->
              List.iter print_endline report
          | Protocol.Cancelled { job } ->
              Format.printf "job %d cancelled@." job
          | Protocol.Checkpointed { job; path } ->
              Format.printf
                "job %d checkpointed to %s (resume with doda sweep \
                 --checkpoint)@."
                job path
          | Protocol.Cancel_ack _ -> ()
          | Protocol.Error_response { message; _ } ->
              Format.printf "server error: %s@." message
        in
        let outcome = Client.run_job conn ~on_response ?trace_file req in
        Client.close conn;
        (match outcome with
        | Error e ->
            Printf.eprintf "protocol error: %s\n" e;
            exit 1
        | Ok responses -> (
            (match csv_out with
            | Some path when !csv_rows <> [] ->
                Doda_sim.Csv.write path ~header:Job.sweep_header
                  (List.rev !csv_rows);
                Format.printf "csv written to %s@." path
            | _ -> ());
            match List.rev responses with
            | (Protocol.Rejected _ | Protocol.Error_response _) :: _ -> exit 1
            | _ -> ()))
  in
  let job_file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"JOBFILE"
          ~doc:
            "JSON job description (a serve request object; the extra field \
             $(i,trace_file) streams a local trace to the server).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write streamed sweep points as CSV — byte-identical to doda \
             sweep --csv with the same parameters.")
  in
  let cancel =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel" ] ~docv:"JOB" ~doc:"Cancel a job by id instead.")
  in
  let term =
    Term.(const client $ port_arg $ socket_arg $ job_file $ csv_out $ cancel)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit a job to a running doda serve instance and stream its \
          results.")
    term

(* ------------------------------------------------------------------ *)
(* doda list                                                           *)

let list_cmd =
  let list () =
    Format.printf "algorithms:@.";
    List.iter (fun name -> Format.printf "  %s@." name) Algorithms.names;
    Format.printf "sources: %s@." Workload.syntax;
    Format.printf "problems (doda run --problem): %s@." Problem.syntax;
    Format.printf "TVG classes (doda classify): %s@." Tvg_class.syntax;
    Format.printf "adaptive adversaries (doda duel): thm1, thm3, spiteful@.";
    Format.printf "recommended tau at n=128: %d@." (Theory.recommended_tau 128)
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms and interaction sources.")
    Term.(const list $ const ())

let () =
  let info =
    Cmd.info "doda" ~version:"1.0.0"
      ~doc:"Distributed online data aggregation in dynamic graphs (ICDCS 2016)."
  in
  let group =
    Cmd.group info
      [ run_cmd; duel_cmd; sweep_cmd; generate_cmd; analyze_cmd; classify_cmd;
        serve_cmd; client_cmd; list_cmd ]
  in
  exit (Cmd.eval group)
