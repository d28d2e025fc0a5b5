module Instrument = Doda_obs.Instrument
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Trace = Doda_dynamic.Trace
module Tvg_class = Doda_dynamic.Tvg_class
module Engine = Doda_core.Engine
module Gossip = Doda_core.Gossip
module Problem = Doda_core.Problem
module Algorithms = Doda_core.Algorithms
module Experiment = Doda_sim.Experiment
module Workload = Doda_sim.Workload
module Scaling = Doda_sim.Scaling
module Table = Doda_sim.Table
module Checkpoint = Doda_sim.Checkpoint
module P = Protocol

type endpoint = Tcp of string * int | Unix_path of string

type config = {
  listen : endpoint;
  jobs : int;
  max_queue : int;
  telemetry : Instrument.t;
}

type t = {
  config : config;
  sock : Unix.file_descr;
  actual : endpoint;
  jobq : Jobq.t;
  exec_shard : Instrument.t;
  drain_flag : bool Atomic.t;
  executor : unit Domain.t;
  mutable acceptor : Thread.t option;
  conns_mutex : Mutex.t;
  conns_done : Condition.t;  (* signalled when [live_conns] drops to 0 *)
  mutable live_conns : int;
}

let endpoint t = t.actual
let queue_depth t = Jobq.depth t.jobq

let connections t =
  Mutex.lock t.conns_mutex;
  let live = t.live_conns in
  Mutex.unlock t.conns_mutex;
  live

(* --- upload bodies --------------------------------------------------- *)

(* 'D' frames chopped at arbitrary boundaries, reassembled into trace
   lines. Memory is O(chunk + longest partial line), never O(trace). *)
type upload_reader = {
  next_line : unit -> string option;
  drain : unit -> unit;
      (* consume leftover 'D' frames up to the empty terminator, so a
         job that stopped early (step limit, cancellation) unblocks a
         client still writing its upload tail *)
}

let upload_reader ic =
  let pending = Buffer.create 8192 in
  let lines = Queue.create () in
  let finished = ref false in
  let feed chunk =
    Buffer.add_string pending chunk;
    let s = Buffer.contents pending in
    Buffer.clear pending;
    let rec split i =
      match String.index_from_opt s i '\n' with
      | Some nl ->
          Queue.push (String.sub s i (nl - i)) lines;
          split (nl + 1)
      | None -> Buffer.add_substring pending s i (String.length s - i)
    in
    split 0
  in
  let read_frame () =
    match Frame.read ic with
    | None -> finished := true (* client hung up: end of upload *)
    | Some (Error e) ->
        finished := true;
        failwith ("upload: " ^ e)
    | Some (Ok (Frame.Json _)) ->
        finished := true;
        failwith "upload: unexpected JSON frame inside a data stream"
    | Some (Ok (Frame.Data "")) -> finished := true
    | Some (Ok (Frame.Data chunk)) -> feed chunk
  in
  let rec next_line () =
    if not (Queue.is_empty lines) then Some (Queue.pop lines)
    else if !finished then
      if Buffer.length pending > 0 then begin
        let l = Buffer.contents pending in
        Buffer.clear pending;
        Some l
      end
      else None
    else begin
      read_frame ();
      next_line ()
    end
  in
  let drain () =
    while not !finished do
      try read_frame () with _ -> finished := true
    done
  in
  { next_line; drain }

(* --- handlers (executor domain) -------------------------------------- *)

(* Poll the cancellation flag every 1024 engine steps: cheap against
   the per-interaction work, prompt against human timescales. *)
let cancel_check ~cancelled =
  let tick = ref 0 in
  fun () ->
    incr tick;
    if !tick land 1023 = 0 && cancelled () then raise Jobq.Cancelled

let find_algo name n =
  match Algorithms.find ~n name with
  | Some a -> a
  | None ->
      failwith
        (Printf.sprintf "unknown algorithm %S; known: %s" name
           (String.concat ", " Algorithms.names))

let parse_workload s =
  match Workload.parse s with
  | Ok w -> w
  | Error e -> failwith ("bad source: " ^ e)

(* A job whose parameters fail [Workload.check]; its message goes back
   verbatim, the same text the CLI prints. *)
exception Bad_job of string

let check_job ?reps source ~n ~sink =
  match Workload.check ?reps source ~n ~sink with
  | Ok () -> ()
  | Error msg -> raise (Bad_job msg)

let handle_run ~job ~ic ~send ~cancelled (r : P.run_req) =
  let problem =
    match Problem.parse ~sink:r.sink (Option.value r.problem ~default:"aggregation") with
    | Ok p -> p
    | Error e -> failwith ("bad problem: " ^ e)
  in
  let sched, drain =
    match r.upload with
    | Some u ->
        let n = max u.nodes (r.sink + 1) in
        let reader = upload_reader ic in
        let gen = Trace.stream_lines ~length:u.length reader.next_line in
        (Schedule.of_fun_chunked ~length:u.length ~n ~sink:r.sink gen, reader.drain)
    | None ->
        let source = parse_workload r.source in
        check_job source ~n:r.n ~sink:r.sink;
        ( Workload.schedule ~stream:r.stream source ~n:r.n ~sink:r.sink
            ~seed:r.seed,
          fun () -> () )
  in
  let n = Schedule.n sched in
  let max_steps =
    match (r.max_steps, Schedule.length sched) with
    | Some m, _ -> Some m
    | None, Some _ -> None
    | None, None -> Some ((200 * n * n) + 10_000)
  in
  let check = cancel_check ~cancelled in
  match problem with
  | Problem.Dissemination _ ->
      let obs = Gossip.observer ~on_step:(fun ~time:_ _ -> check ()) () in
      let result =
        Fun.protect ~finally:drain (fun () ->
            Gossip.run ?max_steps ~record:`Count ~observers:[ obs ] ~problem
              sched)
      in
      send
        (P.Run_result
           {
             job;
             stop = P.stop_string result.Gossip.stop;
             duration = result.Gossip.duration;
             steps = result.Gossip.steps;
             transmissions = result.Gossip.transfer_count;
             problem = Some (Problem.describe problem);
           })
  | Problem.Aggregation _ ->
      let algo = find_algo r.algo n in
      let obs = Engine.observer ~on_step:(fun ~time:_ _ -> check ()) () in
      let result =
        Fun.protect ~finally:drain (fun () ->
            Engine.run ?max_steps ~record:`Count ~observers:[ obs ] algo sched)
      in
      send
        (P.Run_result
           {
             job;
             stop = P.stop_string result.Engine.stop;
             duration = result.Engine.duration;
             steps = result.Engine.steps;
             transmissions = result.Engine.transmission_count;
             problem = None;
           })

let handle_sweep t ~job ~send ~cancelled ~pool (s : P.sweep_req) =
  let source = parse_workload s.source in
  List.iter (fun n -> check_job ~reps:s.reps source ~n ~sink:0) s.ns;
  let cp =
    Option.map
      (fun path ->
        let key =
          Workload.sweep_checkpoint_key ~batch:s.batch ~algo:s.algo ~source
            ~ns:s.ns ~reps:s.reps ~seed:s.seed ~max_steps:s.max_steps
        in
        Checkpoint.create ~path ~key)
      s.checkpoint
  in
  (* Stop at the next replication boundary on cancellation, or — when
     there is a checkpoint to hand back — on server drain. An
     uncheckpointed sweep ignores drain and runs to completion (drain
     means "finish admitted work", not "lose it"). *)
  let should_stop () =
    cancelled () || (Atomic.get t.drain_flag && cp <> None)
  in
  match
    let points =
      List.mapi
        (fun i n ->
          let algo = find_algo s.algo n in
          let checkpoint =
            Option.map (fun c -> Checkpoint.sub c ~base:(i * s.reps)) cp
          in
          let max_steps =
            match s.max_steps with
            | Some m -> m
            | None -> (400 * n * n) + 10_000
          in
          let label = algo.Doda_core.Algorithm.name in
          let factory rng =
            Workload.schedule ~stream:s.stream source ~n ~sink:0
              ~seed:(Doda_prng.Prng.int rng 1_000_000_000)
          in
          let m =
            if s.batch then
              Experiment.run_batched_factory ~pool ?checkpoint ~should_stop
                ~replications:s.reps ~seed:s.seed ~max_steps ~label ~n factory
                algo
            else
              Experiment.run_schedule_factory ~pool ?checkpoint ~should_stop
                ~replications:s.reps ~seed:s.seed ~max_steps ~label ~n factory
                algo
          in
          let p = Scaling.point_of m in
          send
            (P.Point
               {
                 job;
                 n;
                 cells =
                   [
                     string_of_int n;
                     Table.cell_f p.Scaling.mean;
                     Table.cell_f p.Scaling.std_error;
                     Table.cell_ratio p.Scaling.success;
                   ];
               });
          p)
        s.ns
    in
    Option.iter Checkpoint.close cp;
    points
  with
  | points ->
      let exponent =
        if List.length points >= 2 then
          let fit = Scaling.exponent points in
          Some (fit.Doda_stats.Regression.slope, fit.Doda_stats.Regression.r2)
        else None
      in
      send (P.Summary { job; exponent })
  | exception Experiment.Interrupted -> (
      Option.iter Checkpoint.close cp;
      if cancelled () then raise Jobq.Cancelled
      else
        match cp with
        | Some c -> send (P.Checkpointed { job; path = Checkpoint.path c })
        | None -> raise Jobq.Cancelled)

let handle_classify ~job ~ic ~send ~cancelled (c : P.classify_req) =
  let u = c.P.upload in
  let reader = upload_reader ic in
  let seq =
    Fun.protect ~finally:reader.drain (fun () ->
        let gen = Trace.stream_lines ~length:u.length reader.next_line in
        let check = cancel_check ~cancelled in
        if u.length = 0 then Sequence.of_list []
        else begin
          (* classification needs random access (Temporal), so the
             upload is the one handler that materialises; filled in
             index order as stream_lines requires *)
          let arr = Array.make u.length (gen 0) in
          for i = 1 to u.length - 1 do
            check ();
            arr.(i) <- gen i
          done;
          Sequence.of_array arr
        end)
  in
  let n = max u.nodes (Sequence.max_node seq + 1) in
  let sum = Tvg_class.summarize ~n seq in
  let yes_no = function
    | Ok () -> "yes"
    | Error w -> Format.asprintf "no (%a)" Tvg_class.pp_witness w
  in
  let check_cls cls =
    Printf.sprintf "%s: %s"
      (match cls with
      | Tvg_class.T_interval w -> Printf.sprintf "t-interval(%d)" w
      | Tvg_class.Bounded_recurrent b -> Printf.sprintf "bounded-recurrent(%d)" b
      | cls -> Tvg_class.to_string cls)
      (yes_no (Tvg_class.validate ~n cls seq))
  in
  let report =
    [
      Printf.sprintf "nodes: %d, interactions: %d" sum.Tvg_class.nodes
        sum.Tvg_class.length;
      Printf.sprintf "footprint: %d edges, %s" sum.Tvg_class.footprint_edges
        (if sum.Tvg_class.footprint_connected then "connected"
         else "disconnected");
      "temporal: " ^ yes_no sum.Tvg_class.temporal;
      "recurrent: " ^ yes_no sum.Tvg_class.recurrent;
      (match sum.Tvg_class.min_window with
      | Some w -> Printf.sprintf "smallest power-of-two t-interval window: %d" w
      | None -> "t-interval: no window up to the trace length");
      (match sum.Tvg_class.min_bound with
      | Some b -> Printf.sprintf "smallest bounded-recurrent bound: %d" b
      | None -> "bounded-recurrent: empty trace");
    ]
    @ (match c.window with
      | Some w -> [ check_cls (Tvg_class.T_interval w) ]
      | None -> [])
    @
    match c.bound with
    | Some b -> [ check_cls (Tvg_class.Bounded_recurrent b) ]
    | None -> []
  in
  send (P.Classify_result { job; report })

(* --- connections (spawning domain) ----------------------------------- *)

let serve_request t ~ic ~send =
  match Frame.read ic with
  | None -> ()
  | Some (Error e) -> send (P.Error_response { job = None; message = e })
  | Some (Ok (Frame.Data _)) ->
      send
        (P.Error_response
           { job = None; message = "expected a JSON request frame" })
  | Some (Ok (Frame.Json j)) -> (
      match P.request_of_json j with
      | Error e -> send (P.Error_response { job = None; message = e })
      | Ok (P.Cancel id) ->
          send (P.Cancel_ack { job = id; found = Jobq.cancel t.jobq id })
      | Ok req -> (
          let kind =
            match req with
            | P.Run _ -> "run"
            | P.Sweep _ -> "sweep"
            | P.Classify _ -> "classify"
            | P.Cancel _ -> assert false
          in
          let jid = ref 0 in
          let work ~cancelled pool =
            send (P.Started { job = !jid });
            try
              match req with
              | P.Run r -> handle_run ~job:!jid ~ic ~send ~cancelled r
              | P.Sweep s -> handle_sweep t ~job:!jid ~send ~cancelled ~pool s
              | P.Classify c -> handle_classify ~job:!jid ~ic ~send ~cancelled c
              | P.Cancel _ -> assert false
            with
            | Jobq.Cancelled as e ->
                send (P.Cancelled { job = !jid });
                raise e
            | e ->
                let message =
                  match e with Bad_job msg -> msg | e -> Printexc.to_string e
                in
                send (P.Error_response { job = Some !jid; message });
                raise e
          in
          match Jobq.admit t.jobq ~kind ~work with
          | Error reason -> send (P.Rejected { reason })
          | Ok ticket ->
              jid := Jobq.job_id ticket;
              send
                (P.Accepted
                   { job = !jid; queue_depth = Jobq.ticket_depth ticket });
              Jobq.dispatch t.jobq ticket;
              Jobq.wait_done t.jobq ticket))

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wlock = Mutex.create () in
  let send resp =
    Mutex.lock wlock;
    (* EPIPE/closed-socket here means the client went away; the job
       itself notices nothing and runs to completion, which is what a
       fire-and-forget client wants. *)
    (try Frame.write oc (Frame.Json (P.response_to_json resp)) with _ -> ());
    Mutex.unlock wlock
  in
  (try serve_request t ~ic ~send with _ -> ());
  (try close_out_noerr oc with _ -> ());
  Mutex.lock t.conns_mutex;
  t.live_conns <- t.live_conns - 1;
  if t.live_conns = 0 then Condition.broadcast t.conns_done;
  Mutex.unlock t.conns_mutex

let rec accept_loop t =
  if not (Atomic.get t.drain_flag) then begin
    (match Unix.select [ t.sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.sock with
        | fd, _ ->
            (* Counted before the thread exists, so [wait] cannot miss
               it; the thread itself keeps no server-side record. *)
            Mutex.lock t.conns_mutex;
            t.live_conns <- t.live_conns + 1;
            Mutex.unlock t.conns_mutex;
            ignore (Thread.create (handle_connection t) fd)
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* --- lifecycle -------------------------------------------------------- *)

let start config =
  (* A client that disappears mid-stream must not kill the server with
     SIGPIPE; writes fail with EPIPE instead, which [send] swallows. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock, actual =
    match config.listen with
    | Tcp (host, port) ->
        let addr =
          try Unix.inet_addr_of_string host
          with _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> failwith ("cannot resolve host " ^ host))
        in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (addr, port));
        Unix.listen sock 64;
        let actual_port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (sock, Tcp (host, actual_port))
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 64;
        (sock, Unix_path path)
  in
  let exec_shard = Instrument.shard config.telemetry in
  let jobq =
    Jobq.create ~max_queue:config.max_queue ~telemetry:config.telemetry
      ~exec_telemetry:exec_shard ()
  in
  let executor =
    Domain.spawn (fun () ->
        Doda_sim.Pool.with_pool ~jobs:config.jobs (fun pool ->
            Jobq.executor_loop jobq pool))
  in
  let t =
    {
      config;
      sock;
      actual;
      jobq;
      exec_shard;
      drain_flag = Atomic.make false;
      executor;
      acceptor = None;
      conns_mutex = Mutex.create ();
      conns_done = Condition.create ();
      live_conns = 0;
    }
  in
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let initiate_drain t =
  if not (Atomic.exchange t.drain_flag true) then Jobq.drain t.jobq

let wait t =
  Option.iter Thread.join t.acceptor;
  (* No new connections after the acceptor exits, so the count only
     falls from here. Connection threads unblock as their jobs finish. *)
  Domain.join t.executor;
  Mutex.lock t.conns_mutex;
  while t.live_conns > 0 do
    Condition.wait t.conns_done t.conns_mutex
  done;
  Mutex.unlock t.conns_mutex;
  Instrument.absorb t.config.telemetry t.exec_shard;
  (try Unix.close t.sock with _ -> ());
  match t.actual with
  | Unix_path p -> ( try Unix.unlink p with _ -> ())
  | Tcp _ -> ()
