(** Bounded FIFO job queue between connection threads and the executor
    domain — the admission-control half of the server.

    Admission is {e two-phase} so responses stay ordered per
    connection: {!admit} reserves a slot and a job id without making
    the job visible to the executor, the connection thread writes its
    [Accepted] frame, and only then does {!dispatch} enqueue the job.
    The executor therefore cannot emit a [Started] (or any result)
    frame before the client has seen the admission verdict.

    Telemetry lives in two registries because two domains write it:
    connection threads (all on the spawning domain) maintain
    [serve.accepted] / [serve.rejected] and the [serve.queue_depth]
    max-gauge in the {e main} handle; the executor domain maintains
    [serve.queue_wait_us] / [serve.execute_us] histograms,
    [serve.inflight], [serve.completed] / [serve.cancelled] /
    [serve.failed] and per-job ["serve/job/<kind>"] spans in an
    {!Doda_obs.Instrument.shard} the server absorbs after the executor
    joins — no cross-domain metric writes anywhere. *)

type t

exception Cancelled
(** Raised {e by job work functions} when they observe their
    cancellation flag; the executor counts it as [serve.cancelled]
    rather than a failure. *)

type ticket
(** An admitted-but-not-yet-dispatched job. *)

val create :
  max_queue:int ->
  telemetry:Doda_obs.Instrument.t ->
  exec_telemetry:Doda_obs.Instrument.t ->
  unit ->
  t
(** [max_queue] bounds jobs admitted that have not yet written their
    terminal frame; admissions beyond it are rejected with a reason.
    [telemetry] is the main-side handle, [exec_telemetry] the
    executor-side shard (see above). *)

val admit :
  t ->
  kind:string ->
  work:
    (cancelled:(unit -> bool) ->
    reply:((unit -> unit) -> unit) ->
    Doda_sim.Pool.t ->
    unit) ->
  (ticket, string) result
(** Reserve a slot. [Error reason] when the queue is full or the
    server is draining. [work] runs on the executor domain with the
    executor's pool; it should poll [cancelled] at natural boundaries
    and raise {!Cancelled} (after sending its own farewell frame) when
    the flag is up.

    [work] writes its terminal frame (result, error or farewell)
    through [reply]: [reply write] frees the job's admission slot, then
    runs [write]. A client that submits its next job as soon as it
    reads the terminal frame therefore finds the slot free. The job
    counts as finished (see {!wait_done}) only once [work] has
    returned, so after the write; a job that raises before replying
    frees its slot then too. *)

val job_id : ticket -> int
val ticket_depth : ticket -> int
(** Queue depth at admission, including this job. *)

val dispatch : t -> ticket -> unit
(** Make an admitted job visible to the executor. Call exactly once. *)

val cancel : t -> int -> bool
(** Flag job [id] for cancellation, whether queued or running; [false]
    if no such job is in flight (unknown id, or already replying or
    finished). A still-queued job is cancelled before its work
    starts. *)

val depth : t -> int
(** Jobs admitted and holding their slot (not yet replying). *)

val drain : t -> unit
(** Stop admitting; the executor finishes everything already admitted
    and {!executor_loop} returns once the queue is empty. Idempotent. *)

val draining : t -> bool

val wait_done : t -> ticket -> unit
(** Block (a connection thread) until the job has finished — completed,
    cancelled, or failed. *)

val executor_loop : t -> Doda_sim.Pool.t -> unit
(** Run jobs FIFO, one at a time, on the calling (executor) domain,
    until {!drain}ed and empty. Never lets a job's exception escape:
    {!Cancelled} counts as cancelled, anything else as [serve.failed]
    (the work function is responsible for reporting errors on its own
    connection). *)
