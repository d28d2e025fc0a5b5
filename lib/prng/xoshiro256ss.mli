(** xoshiro256** 1.0 (Blackman & Vigna, 2018).

    The workhorse generator of the library: 256 bits of state, period
    [2^256 - 1], excellent statistical quality and very fast. All
    randomness in simulations flows through this generator via
    {!Prng}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] into a full 256-bit state using
    SplitMix64, as recommended by the authors. *)

val of_state : int64 * int64 * int64 * int64 -> t
(** [of_state (s0, s1, s2, s3)] uses the given words directly. The
    state must not be all-zero. @raise Invalid_argument otherwise. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output. *)

val next_bits : t -> drop:int -> int
(** [next_bits g ~drop] is
    [Int64.to_int (Int64.shift_right_logical (next g) drop)]. The state
    update is inlined into it, so the four state words and the output
    never leave registers boxed: one call is four 64-bit loads, the
    xoshiro256** arithmetic and four stores, with no allocation and no
    C call. Every integer and float draw in {!Prng} goes through it.
    [drop] must be at least 2 for the result to fit an OCaml int. *)

val jump : t -> unit
(** [jump g] advances [g] by [2^128] steps; used to carve
    non-overlapping substreams out of one seed. *)

val copy : t -> t
(** [copy g] is an independent generator with the same state. *)
