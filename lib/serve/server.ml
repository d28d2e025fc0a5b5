module Instrument = Doda_obs.Instrument
module Sequence = Doda_dynamic.Sequence
module Interaction = Doda_dynamic.Interaction
module Int_vec = Doda_dynamic.Int_vec
module Trace = Doda_dynamic.Trace
module Engine = Doda_core.Engine
module Gossip = Doda_core.Gossip
module Problem = Doda_core.Problem
module Job = Doda_sim.Job
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

(* Each handler writes its terminal frame with [reply], which frees
   the job's admission slot first (see [Jobq.admit]); progress frames
   go through [send]. *)

(* The upload's lines reach the job; whatever it leaves unread is
   drained however the job ends. *)
let handle_run ~job ~ic ~reply ~cancelled (r : P.run_req) =
  let reader = Option.map (fun _ -> upload_reader ic) r.upload in
  let _sched, outcome =
    Fun.protect
      ~finally:(fun () -> Option.iter (fun rd -> rd.drain ()) reader)
      (fun () ->
        Job.run ~record:`Count ~on_step:(cancel_check ~cancelled)
          ?lines:(Option.map (fun rd -> rd.next_line) reader)
          r)
  in
  reply
    (match outcome with
    | Job.Disseminated (problem, result) ->
        P.Run_result
          {
            job;
            stop = P.stop_string result.Gossip.stop;
            duration = result.Gossip.duration;
            steps = result.Gossip.steps;
            transmissions = result.Gossip.transfer_count;
            problem = Some (Problem.describe problem);
          }
    | Job.Aggregated (_, result) ->
        P.Run_result
          {
            job;
            stop = P.stop_string result.Engine.stop;
            duration = result.Engine.duration;
            steps = result.Engine.steps;
            transmissions = result.Engine.transmission_count;
            problem = None;
          })

let handle_sweep t ~job ~send ~reply ~cancelled ~pool (s : P.sweep_req) =
  (* Stop at the next replication boundary on cancellation, or — when
     there is a checkpoint to hand back — on server drain. An
     uncheckpointed sweep ignores drain and runs to completion (drain
     means "finish admitted work", not "lose it"). *)
  let should_stop () =
    cancelled () || (Atomic.get t.drain_flag && s.checkpoint <> None)
  in
  let on_point ~n cells = send (P.Point { job; n; cells }) in
  match Job.sweep ~pool ~should_stop ~on_point s with
  | Job.Done exponent -> reply (P.Summary { job; exponent })
  | Job.Interrupted (Some path) when not (cancelled ()) ->
      reply (P.Checkpointed { job; path })
  | Job.Interrupted _ -> raise Jobq.Cancelled

let handle_classify ~job ~ic ~reply ~cancelled (c : P.classify_req) =
  let u = c.P.upload in
  let reader = upload_reader ic in
  let seq =
    (* a line the trace reader refuses rejects the job with its message *)
    Job.reading @@ fun () ->
    Fun.protect ~finally:reader.drain (fun () ->
        let gen = Trace.stream_lines ~length:u.length reader.next_line in
        let check = cancel_check ~cancelled in
        (* classification needs random access (Temporal), so the
           upload is the one handler that materialises, in index order
           as stream_lines requires. The buffer grows with the lines
           received, not with the header's declared length, so a short
           body fails with the reader's message without the declared
           length ever being allocated. *)
        let packed = Int_vec.create () in
        for i = 0 to u.length - 1 do
          check ();
          Int_vec.push packed (Interaction.to_int (gen i))
        done;
        Sequence.of_array (Interaction.unsafe_of_ints (Int_vec.to_array packed)))
  in
  let report =
    Job.classify ?window:c.window ?bound:c.bound ~nodes:u.nodes seq
  in
  reply (P.Classify_result { job; report })

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
          let work ~cancelled ~reply pool =
            let reply resp = reply (fun () -> send resp) in
            send (P.Started { job = !jid });
            try
              match req with
              | P.Run r -> handle_run ~job:!jid ~ic ~reply ~cancelled r
              | P.Sweep s ->
                  handle_sweep t ~job:!jid ~send ~reply ~cancelled ~pool s
              | P.Classify c ->
                  handle_classify ~job:!jid ~ic ~reply ~cancelled c
              | P.Cancel _ -> assert false
            with
            | Jobq.Cancelled as e ->
                reply (P.Cancelled { job = !jid });
                raise e
            | e ->
                let message =
                  match e with
                  | Job.Rejected msg -> msg
                  | e -> Printexc.to_string e
                in
                reply (P.Error_response { job = Some !jid; message });
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
