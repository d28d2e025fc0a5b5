(** High-level pseudo-random interface used by the whole library.

    Every simulation takes an explicit [Prng.t]; there is no hidden
    global state, so any run is reproducible from its seed, and
    replications use {!split} to obtain decorrelated streams. *)

type t
(** A mutable random stream (xoshiro256** underneath). *)

val create : int -> t
(** [create seed] builds a stream from an integer seed. *)

val create64 : int64 -> t
(** [create64 seed] builds a stream from a 64-bit seed. *)

val split : t -> t
(** [split g] derives an independent child stream and advances [g].
    Splitting repeatedly yields decorrelated streams; use one per
    replication of an experiment. *)

val split_n : t -> int -> t array
(** [split_n g k] is [k] independent child streams, split from [g] in
    index order — entry [i] is what the [i+1]-th call to {!split}
    would have returned. The batch replication path hands each
    replication of a lockstep batch its slice of this array, so batch
    and scalar replications receive bit-identical streams.
    @raise Invalid_argument on a negative count. *)

val copy : t -> t
(** [copy g] duplicates the current state. *)

val bits64 : t -> int64
(** [bits64 g] is 64 uniformly random bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. Uses rejection sampling,
    hence exactly uniform. @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)], with 53 bits of
    precision. *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential g lambda] samples an exponential of rate [lambda]. *)

val geometric : t -> float -> int
(** [geometric g p] is the number of failures before the first success
    of a Bernoulli([p]) sequence; [p] must lie in (0, 1]. *)

val pair : t -> int -> int * int
(** [pair g n] is an unordered pair of distinct values drawn uniformly
    from the [n * (n-1) / 2] pairs over [\[0, n)]; the result is
    returned with the smaller value first. @raise Invalid_argument if
    [n < 2]. *)

val pair_with : t -> int -> (int -> int -> 'a) -> 'a
(** [pair_with g n k] is [k a b] for the pair [(a, b)] that [pair g n]
    would return, from the same draws, without building the tuple. With
    a closed top-level [k] (such as [Interaction.make]) a draw
    allocates nothing. @raise Invalid_argument if [n < 2], with
    {!pair}'s message. *)

val choose : t -> 'a array -> 'a
(** [choose g a] is a uniformly random element of [a].
    @raise Invalid_argument on an empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index g w] samples index [i] with probability
    [w.(i) / sum w]. Weights must be nonnegative and not all zero.
    Linear scan; for repeated sampling from the same weights prefer
    {!Alias.create}. *)

val shuffle : t -> 'a array -> unit
(** [shuffle g a] permutes [a] uniformly in place (Fisher–Yates). *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g k n] is [k] distinct values drawn
    uniformly from [\[0, n)], in random order.
    @raise Invalid_argument if [k > n] or [k < 0]. *)

(** Walker's alias method: O(1) sampling from a fixed discrete
    distribution after O(n) preprocessing. Used by the non-uniform
    randomized adversary where every interaction draws from the same
    weight table. *)
module Alias : sig
  type dist

  val create : float array -> dist
  (** [create w] preprocesses nonnegative weights [w] (not all zero).
      @raise Invalid_argument on invalid weights. *)

  val sample : t -> dist -> int
  (** [sample g d] draws an index with probability proportional to its
      weight. *)

  val size : dist -> int
  (** Number of outcomes. *)
end
