(** Growable int buffers, monomorphic on purpose: unlike ['a Vec.t],
    stores compile to direct unboxed writes with no caml_modify write
    barrier, which matters in the schedule-materialisation hot path.
    Used for packed-interaction buffers and sink-meeting indexes. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty vector. [capacity] (default 8) pre-sizes the backing
    array so pushes up to it never reallocate — pass a known upper
    bound (e.g. the transmission-count bound [n] of a run log) to keep
    hot append loops doubling-free. @raise Invalid_argument on a
    negative capacity. *)

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds access. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument on out-of-bounds access. *)

val push : t -> int -> unit

val last : t -> int
(** @raise Invalid_argument if empty. *)

val to_array : t -> int array

val of_array : int array -> t

val iter : (int -> unit) -> t -> unit

val clear : t -> unit
(** Resets length to zero (capacity retained). *)

val truncate : t -> int -> unit
(** [truncate v len] shrinks the length to [len] (capacity retained).
    @raise Invalid_argument if [len] exceeds the current length. *)

val unsafe_get : t -> int -> int
(** [get] without the bounds check; out-of-range access is undefined
    behaviour. For hot loops whose induction variable is already
    bounded by {!length}. *)

val unsafe_set : t -> int -> int -> unit
(** [set] without the bounds check; same contract as {!unsafe_get}. *)

val unsafe_data : t -> int array
(** The backing array itself, no copy: entries [0 .. length - 1] are
    the vector, the rest is spare capacity. A {!push} that grows the
    vector moves it to a new array; the old one keeps its entries. Read
    only by contract, for a reader that must not pay a call per
    element. *)
