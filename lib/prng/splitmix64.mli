(** SplitMix64 pseudo-random generator (Steele, Lea & Flood, 2014).

    A tiny, fast, 64-bit generator with a single 64-bit word of state.
    It is primarily used here to seed {!Xoshiro256ss} from a single
    integer, and to derive independent child seeds ({i splitting}) so
    that replications of an experiment use decorrelated streams. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator initialised with [seed].
    Any seed is acceptable, including [0L]. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output. *)

val split : t -> int64
(** [split g] advances [g] and returns a value suitable as the seed of
    an independent child generator. *)

val copy : t -> t
(** [copy g] is a generator with the same state as [g], evolving
    independently afterwards. *)
