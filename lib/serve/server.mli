(** The long-lived simulation service: a listening socket in front of
    the engine, the batch engine and a domain pool.

    Thread/domain layout — one of each, by design:

    - the {e accept thread} (a systhread on the spawning domain) polls
      the listening socket with a short [select] timeout so drain is
      noticed promptly, and hands each connection to a fresh
      connection thread;
    - {e connection threads} (systhreads, also on the spawning domain)
      do protocol work only: read one request, run admission, write
      the verdict, then block until their job finishes — they never
      simulate;
    - the {e executor domain} owns the {!Doda_sim.Pool} (a pool must
      be driven by its creating domain) and runs jobs FIFO off the
      {!Jobq}; replications fan out over the pool's worker domains
      exactly as the offline CLI's do.

    Determinism: a job's results depend only on its request (seeds are
    pre-split per replication — {!Doda_sim.Experiment.split_seeds}),
    never on queue interleaving, concurrent clients, or [jobs]; the
    test suite diffs served sweeps against the offline
    {!Doda_sim.Job.sweep} — what [doda sweep] runs — byte-for-byte.
    Jobs are resolved, checked and run by {!Doda_sim.Job}; a rejected
    job's [error] response carries {!Doda_sim.Job.Rejected}'s message
    verbatim, the line the CLI prints.

    Graceful drain ({!initiate_drain}): stop accepting connections,
    reject new admissions with ["server is draining"], finish every
    admitted job — long checkpointed sweeps stop early at a
    replication boundary, flush, and answer [Checkpointed] so the
    offline CLI can resume them — then {!wait} joins everything and
    folds the executor's telemetry shard into the main handle. *)

type endpoint = Tcp of string * int | Unix_path of string

type config = {
  listen : endpoint;  (** [Tcp (host, 0)] binds an ephemeral port *)
  jobs : int;  (** worker domains in the executor's pool *)
  max_queue : int;  (** admission bound: jobs in flight *)
  telemetry : Doda_obs.Instrument.t;
}

type t

val start : config -> t
(** Bind, spawn the executor domain and the accept thread, return
    immediately. @raise Unix.Unix_error if the socket cannot be
    bound. *)

val endpoint : t -> endpoint
(** The actual endpoint — for [Tcp (host, 0)], the bound port. *)

val queue_depth : t -> int

val connections : t -> int
(** Connections currently being served. The server keeps no other
    per-connection state: a finished connection leaves nothing behind,
    so a long-lived server's footprint does not grow with the number
    of connections it has served. *)

val initiate_drain : t -> unit
(** Begin graceful shutdown; safe from any thread, idempotent,
    returns immediately. *)

val wait : t -> unit
(** Block until drained: joins the accept thread and the executor
    domain, waits for every connection to finish, absorbs the executor
    telemetry shard, closes the socket and unlinks a unix-domain
    socket path. Call {!initiate_drain} first (or from a signal
    watchdog). *)
