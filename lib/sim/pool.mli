(** A fixed-size pool of worker domains for embarrassingly parallel
    experiment replication (OCaml 5 [Domain]s; no external deps).

    A pool with [jobs] slots runs work on the calling domain plus
    [jobs - 1] persistent worker domains, so [create ~jobs:1] spawns no
    domains at all and {!map_array} degenerates to [Array.map] on the
    caller — handy for bit-for-bit comparisons against sequential code.

    {b Determinism.} The pool never touches random state. Callers that
    need reproducible parallel runs must derive every per-item random
    stream {e sequentially on the calling domain before dispatch} (see
    {!Experiment.replicate_par}); the pool then only changes {e where}
    each item executes, never {e what} it computes.

    {b Thread-safety invariant.} Work items run concurrently on
    independent domains and must not share mutable state. In this
    code base the main trap is {!Doda_dynamic.Schedule.t}: no schedule
    crosses a domain, because every schedule memoizes lazily (its
    [ensure] and sink-index [Int_vec] mutation is unsynchronised), so a
    schedule value must never be shared between work items — each
    replication must build its own schedule inside the worker, as the
    factory pattern of {!Experiment.run_schedule_factory} does. *)

type t
(** A running pool. Owned by the domain that created it; {!map_array}
    and {!shutdown} must be called from that domain only. *)

val create : jobs:int -> t
(** [create ~jobs] starts a pool with [jobs] execution slots
    ([jobs - 1] worker domains). @raise Invalid_argument if
    [jobs < 1]. *)

val jobs : t -> int
(** Number of execution slots (worker domains + the caller). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f arr] computes [Array.map f arr], distributing
    the items over the pool's slots. The calling domain participates.
    The result array is in input order regardless of completion order.
    If any [f arr.(i)] raises, the exception for the lowest such [i]
    is re-raised on the caller (with its backtrace) after all items
    finished or were abandoned. *)

val map_array_sharded :
  t ->
  make:(unit -> 's) ->
  merge:('s -> unit) ->
  ('s -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array_sharded pool ~make ~merge f arr] is {!map_array} with
    one piece of per-slot state: before the batch, [make ()] builds a
    shard per execution slot (caller and each worker), sequentially on
    the calling domain; during the batch, each item is computed as
    [f shard item] with the shard of whichever slot runs it; after the
    batch — including when an item raised — every shard is passed to
    [merge], in slot order, on the calling domain. A shard is only
    ever touched by one domain at a time, so shards need no locking.

    Aggregates folded by [merge] are deterministic across job counts
    exactly when the fold is insensitive to how items were distributed
    over shards — true for commutative, associative combines such as
    the integer sums and maxima of {!Doda_obs.Metrics.absorb}. *)

val pipeline : t -> Doda_dynamic.Schedule.t -> unit
(** [pipeline pool sched] enables producer/consumer pipelining on a
    chunked schedule ({!Doda_dynamic.Schedule.chunk_prefetch} wired to
    this pool's job queue): block decodes run as pool jobs, overlapped
    with the consumer draining the current block. A no-op when the
    pool has no worker domains (jobs = 1) or the schedule is not
    chunked, so callers can apply it unconditionally. Draw streams are
    unchanged — the generator still runs exactly once per index in
    order — so results stay bit-identical at any job count. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent. Any use of the pool
    after [shutdown] (other than [shutdown]) raises. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exception. *)

val parse_jobs : string -> int option
(** [parse_jobs s] parses a job count: [Some j] for an integer
    [j >= 1], [None] otherwise. The [DODA_JOBS] syntax. *)

val default_jobs : unit -> int
(** The [DODA_JOBS] environment variable if set and valid, otherwise
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument on a set-but-invalid [DODA_JOBS]. *)
