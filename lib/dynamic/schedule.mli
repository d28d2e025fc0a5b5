(** Possibly-unbounded interaction schedules.

    A schedule is where an execution's interactions come from: either a
    fixed finite {!Sequence.t}, or a generator function materialised
    lazily (the randomized adversary draws interactions on demand, yet
    algorithms like Waiting Greedy need an oracle over the {e future}
    of the very same draw — lazy materialisation keeps both consistent).

    Every schedule maintains an index of interactions involving the
    sink, so that the [meetTime] knowledge of Section 4.3 — the first
    time after [t] at which a node interacts with the sink — is a
    binary search instead of a scan.

    For horizons where even lazy materialisation is too much — sweeps
    at n >= 10^5 process ~n^2 interactions — a {e chunked} schedule
    ({!of_fun_chunked}) streams the generator through one fixed-size
    block recycled in place: memory is O(block) whatever the horizon,
    at the price of strictly forward access and no sink-meeting index
    (meet-time knowledge is unavailable; Gathering and Waiting need
    none).

    {b Node-count limit.} Interactions pack both endpoint ids into one
    63-bit OCaml int ([(u lsl 31) lor v]), so every constructor
    rejects [n > Interaction.max_node_id + 1] (= 2^31) with a clear
    error instead of letting ids wrap silently.

    {b Thread-safety.} A live schedule is {e not} thread-safe: lazy
    materialisation and the sink index mutate unsynchronised internal
    buffers on access, including through ostensibly read-only calls
    such as {!get} and {!next_meet_with_sink}; it must stay confined to
    one domain. The same holds for a chunked schedule (block refills
    mutate in place). A {e frozen} schedule ({!freeze}) is immutable —
    a flat packed int array plus the complete sink-meeting index — and
    is safe to share read-only across domains, e.g. one schedule per
    trace swept by many algorithms on a {!Doda_sim.Pool}. *)

type t

val of_sequence : n:int -> sink:int -> Sequence.t -> t
(** A finite schedule. Node ids in the sequence must be below [n].
    @raise Invalid_argument on a bad [sink] or out-of-range ids
    (checked lazily on access for generators, eagerly here). *)

val of_fun : n:int -> sink:int -> (int -> Interaction.t) -> t
(** [of_fun ~n ~sink gen] materialises [gen t] on first access to time
    [t]; [gen] is called exactly once per index, in increasing order. *)

val of_fun_chunked :
  ?block:int -> ?length:int -> n:int -> sink:int ->
  (int -> Interaction.t) -> t
(** [of_fun_chunked ~n ~sink gen] is a {e streaming} schedule over
    [gen]: interactions are decoded [block] at a time (default 8192)
    into one fixed buffer recycled in place, so memory stays O(block)
    however far the run goes — in contrast to {!of_fun}, which keeps
    the whole materialised prefix. [length] caps the schedule at a
    finite horizon (e.g. a {!Trace.stream}ed file): decoding stops
    there, {!length} reports it, and reads beyond it behave like the
    end of any finite schedule. The trade-offs:

    - {e strictly forward}: reading a time before the current block
      raises [Invalid_argument] — old interactions are gone;
    - {e no sink-meeting index}: {!next_meet_with_sink},
      {!meets_with_sink_upto}, {!prefix} and {!freeze} raise
      [Invalid_argument];
    - [gen] is still called exactly once per index in increasing
      order, but may run up to one block {e ahead} of the highest time
      read (whole blocks are decoded at once). Give each chunked
      schedule a dedicated PRNG stream.

    @raise Invalid_argument on a bad [sink], [n] outside [2 ..
    Interaction.max_node_id + 1], or [block < 1]. *)

val freeze : t -> t
(** The compact immutable form of a finite schedule: the interaction
    sequence as a flat packed int array plus the sink-meeting index
    built once, eagerly, in one pass. Queries answer without mutating
    anything, so the result can be shared read-only across domains and
    reused by every algorithm sweeping the same trace. Freezing an
    already frozen schedule is the identity.
    @raise Invalid_argument on an unbounded (generator or chunked)
    schedule — freeze a finite {!prefix} instead. *)

val is_frozen : t -> bool

val n : t -> int
(** Number of nodes. *)

val sink : t -> int

val length : t -> int option
(** [Some len] for finite schedules, [None] for generators. *)

val get : t -> int -> Interaction.t option
(** [get s t] is [Some I_t], materialising as needed; [None] iff the
    schedule is finite and [t] is past its end. On a chunked schedule,
    @raise Invalid_argument for a time before the current block. *)

val get_exn : t -> int -> Interaction.t
(** @raise Invalid_argument past the end of a finite schedule, or on a
    chunked-schedule rewind. Chunked-schedule errors name the failing
    operation and point at a replayable alternative (rebuild without
    [--stream]). *)

val backing : t -> Sequence.t option
(** The full backing sequence of a finite or frozen schedule, no copy,
    for whole-schedule readers such as the knowledge oracles and the
    offline optimum. [None] for generator and chunked schedules. *)

(** {1 Forward reads}

    The one read path of every run-core. A cursor is a view of
    interactions [base .. hi - 1] of one schedule; a kernel reads time
    [t] as
    {[
      if t >= cur.hi then Schedule.advance cur t;
      let i = Array.unsafe_get cur.blk (t - cur.base) in
    ]}
    so a step costs one compare and one load whatever the schedule's
    form, and only a block change calls into this module. *)

type cursor = private {
  src : t;  (** the schedule read *)
  mutable blk : Interaction.t array;
  mutable base : int;  (** time of [blk.(0)] *)
  mutable hi : int;  (** for [base <= t < hi], [blk.(t - base)] is [I_t] *)
}

val cursor : t -> cursor
(** An empty view ([hi = 0]) of the schedule: the first read advances. *)

val advance : cursor -> int -> unit
(** [advance cur t] moves the view so that it covers [t]:

    - a finite or frozen schedule shows its whole backing at once;
    - a chunked schedule shows its current block, decoding the next one
      as needed (under {!chunk_prefetch} the buffer swap happens here,
      and the view moves to the new block in the same call);
    - a generator shows its materialised prefix, extended only as far
      as [t] — a scalar run materialises exactly what it reads.

    @raise Invalid_argument on a negative time, a time past the end of
    a finite schedule, or a chunked-schedule rewind (same wording as
    {!get_exn}). *)

val is_chunked : t -> bool

val chunk_view : t -> int -> int array * int * int
(** [chunk_view s time] is [(block, off, avail)]: the current block of
    a chunked schedule positioned so [block.(off)] is the packed
    interaction at [time], with [avail >= 1] consecutive entries valid
    from [off]. Advances (and recycles) the block as needed. The
    run-cores read through a {!cursor}; this block-level view is for
    drain-only measurements.
    @raise Invalid_argument on a non-chunked schedule, a negative
    time, or a time before the current block (forward-only). *)

val chunk_prefetch : t -> submit:((unit -> unit) -> unit) -> now:(unit -> int) -> unit
(** [chunk_prefetch s ~submit ~now] turns a chunked schedule into a
    two-stage pipeline: a producer task (queued through [submit],
    typically {!Doda_sim.Pool}'s job queue) decodes the {e next} block
    into a spare buffer while the consumer drains the current one; on
    advance the buffers swap and the next fill is queued. [now] is a
    monotonic ns clock used only to account consumer stall time.

    Determinism is unchanged: the generator is still called exactly
    once per index in increasing order (exactly one fill is in flight
    at any moment), so the draw stream — and everything derived from
    it — is identical with or without prefetch. If no worker has
    started a queued fill when the consumer needs it, the consumer
    steals and runs it inline, so a busy or empty pool can never
    deadlock the run (it just degrades to the synchronous path).

    After this call the schedule must be advanced from a single
    consumer domain (the producer side is synchronized internally).
    Idempotent: a second call keeps the running producer chain.
    A generator exception is re-raised on the consumer at the advance
    that needs the failed block.
    @raise Invalid_argument on a non-chunked schedule. *)

type chunk_stats = {
  refills : int;  (** blocks installed as current — deterministic *)
  prefetched : int;  (** installed blocks that a pool task decoded *)
  stalls : int;  (** consumer waits on an unfinished fill *)
  stall_ns : int;  (** total time spent in those waits *)
}
(** [refills] depends only on the draw stream and block size, so it is
    safe to surface in jobs-invariant output; the other three are
    timing-dependent (zero without {!chunk_prefetch}). *)

val chunk_stats : t -> chunk_stats
(** Streaming counters of a chunked schedule; all-zero for other forms. *)

val materialized : t -> int
(** Number of interactions materialised so far. For a chunked schedule
    this is the high-water mark of decoded times — only the last block
    of them is actually held in memory. *)

val prefix : t -> int -> Sequence.t
(** [prefix s k] is [I_0 .. I_{k-1}] as a finite sequence,
    materialising as needed. On a finite schedule it is the backing
    sequence itself when [k] is its whole length (a {!Sequence.t} is
    read-only), a copy of its first [k] interactions otherwise; it
    indexes no sink meetings. @raise Invalid_argument if a finite
    schedule is shorter than [k]. *)

val next_meet_with_sink : t -> node:int -> after:int -> limit:int -> int option
(** [next_meet_with_sink s ~node ~after ~limit] is the smallest time
    [t' > after] with [I_{t'} = {node, sink}] and [t' <= limit], if
    any. This is the paper's [u.meetTime(t)] capped at [limit] —
    Waiting Greedy only ever compares meet times against its parameter
    [tau], so a cap keeps laziness without changing decisions. For
    [node = sink] the paper defines meetTime as the identity, so
    [Some (after + 1)] is returned (clipped to [limit]).

    On a live schedule the search is lazy: it reads the node's indexed
    sink meetings first and, while none lies after [after], indexes 512
    more interactions (materialising a generator that far) and looks
    again. It never materialises past [limit + 1], and when it answers
    [Some m] it stops within 512 interactions of [m] — policies probe
    with limits far beyond where their runs end. The answers equal
    those of a fully indexed schedule, since meets are indexed in time
    order. A frozen schedule answers by binary search. *)

val meets_with_sink_upto : t -> int -> int array
(** [meets_with_sink_upto s k] counts, per node, the interactions with
    the sink among [I_0 .. I_{k-1}] (index [sink] counts all of them).
    Used by the Lemma 1 experiment. *)
