module Instrument = Doda_obs.Instrument
module Metrics = Doda_obs.Metrics

exception Cancelled

type job = {
  id : int;
  kind : string;
  work :
    cancelled:(unit -> bool) ->
    reply:((unit -> unit) -> unit) ->
    Doda_sim.Pool.t ->
    unit;
  cancel_flag : bool Atomic.t;
  mutable enqueued_ns : int64;
  mutable finished : bool;  (* guarded by the queue mutex *)
}

type ticket = { job : job; depth_at_admit : int }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;  (* signals: job dispatched, drain, job finished *)
  queue : job Queue.t;
  inflight : (int, job) Hashtbl.t;  (* admitted and not yet replying *)
  max_queue : int;
  mutable is_draining : bool;
  mutable next_id : int;
  (* main-side metrics: touched only by connection threads (all on the
     spawning domain) *)
  accepted : Metrics.counter;
  rejected : Metrics.counter;
  queue_depth : Metrics.gauge;
  (* executor-side metrics: touched only by the executor domain *)
  exec_tel : Instrument.t;
  queue_wait_us : Metrics.histogram;
  execute_us : Metrics.histogram;
  inflight_gauge : Metrics.gauge;
  completed : Metrics.counter;
  cancelled_c : Metrics.counter;
  failed : Metrics.counter;
}

let now_ns () = Monotonic_clock.now ()

let create ~max_queue ~telemetry ~exec_telemetry () =
  let m = Instrument.metrics telemetry in
  let em = Instrument.metrics exec_telemetry in
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    inflight = Hashtbl.create 64;
    max_queue;
    is_draining = false;
    next_id = 1;
    accepted = Metrics.counter m "serve.accepted";
    rejected = Metrics.counter m "serve.rejected";
    queue_depth = Metrics.gauge m "serve.queue_depth";
    exec_tel = exec_telemetry;
    queue_wait_us = Metrics.histogram em "serve.queue_wait_us";
    execute_us = Metrics.histogram em "serve.execute_us";
    inflight_gauge = Metrics.gauge em "serve.inflight";
    completed = Metrics.counter em "serve.completed";
    cancelled_c = Metrics.counter em "serve.cancelled";
    failed = Metrics.counter em "serve.failed";
  }

let job_id t = t.job.id
let ticket_depth t = t.depth_at_admit

let admit t ~kind ~work =
  Mutex.lock t.mutex;
  let verdict =
    if t.is_draining then Error "server is draining, not accepting jobs"
    else if Hashtbl.length t.inflight >= t.max_queue then
      Error
        (Printf.sprintf "queue full (%d jobs in flight, max %d)"
           (Hashtbl.length t.inflight) t.max_queue)
    else begin
      let id = t.next_id in
      t.next_id <- id + 1;
      let job =
        {
          id;
          kind;
          work;
          cancel_flag = Atomic.make false;
          enqueued_ns = 0L;
          finished = false;
        }
      in
      Hashtbl.replace t.inflight id job;
      let depth = Hashtbl.length t.inflight in
      Metrics.set_max t.queue_depth depth;
      Ok { job; depth_at_admit = depth }
    end
  in
  Mutex.unlock t.mutex;
  (match verdict with
  | Ok _ -> Metrics.incr t.accepted
  | Error _ -> Metrics.incr t.rejected);
  verdict

let dispatch t ticket =
  Mutex.lock t.mutex;
  ticket.job.enqueued_ns <- now_ns ();
  Queue.push ticket.job t.queue;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let cancel t id =
  Mutex.lock t.mutex;
  let found =
    match Hashtbl.find_opt t.inflight id with
    | Some job ->
        Atomic.set job.cancel_flag true;
        true
    | None -> false
  in
  Mutex.unlock t.mutex;
  found

let depth t =
  Mutex.lock t.mutex;
  let d = Hashtbl.length t.inflight in
  Mutex.unlock t.mutex;
  d

let drain t =
  Mutex.lock t.mutex;
  t.is_draining <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let draining t =
  Mutex.lock t.mutex;
  let d = t.is_draining in
  Mutex.unlock t.mutex;
  d

let wait_done t ticket =
  Mutex.lock t.mutex;
  while not ticket.job.finished do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex

let us_between a b = Int64.to_int (Int64.div (Int64.sub b a) 1000L)

let executor_loop t pool =
  let rec loop () =
    Mutex.lock t.mutex;
    (* Exit only when draining AND nothing is in flight at all — a job
       admitted but not yet dispatched (its connection thread is
       between the Accepted frame and the enqueue) must still run. *)
    while
      Queue.is_empty t.queue
      && not (t.is_draining && Hashtbl.length t.inflight = 0)
    do
      Condition.wait t.cond t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      let picked = now_ns () in
      Metrics.observe t.queue_wait_us (us_between job.enqueued_ns picked);
      Metrics.set t.inflight_gauge 1;
      (* The slot is freed before the terminal frame is written, and
         [finished] set only once [work] returns, after the write: the
         connection closes its channel when [wait_done] returns, so
         never under a write. *)
      let reply write =
        Mutex.lock t.mutex;
        Hashtbl.remove t.inflight job.id;
        Mutex.unlock t.mutex;
        write ()
      in
      (try
         Instrument.with_span t.exec_tel ("serve/job/" ^ job.kind) (fun () ->
             job.work
               ~cancelled:(fun () -> Atomic.get job.cancel_flag)
               ~reply pool);
         Metrics.incr t.completed
       with
      | Cancelled -> Metrics.incr t.cancelled_c
      | _ -> Metrics.incr t.failed);
      Metrics.set t.inflight_gauge 0;
      Metrics.observe t.execute_us (us_between picked (now_ns ()));
      Mutex.lock t.mutex;
      job.finished <- true;
      (* still held by a job that raised before replying *)
      Hashtbl.remove t.inflight job.id;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()
