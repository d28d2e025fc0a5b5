(** A pairwise interaction — the atom of the paper's dynamic-graph
    model. A dynamic graph is a couple [(V, I)] where [I = (I_t)] is a
    sequence of interactions and the index [t] of an interaction is its
    time of occurrence. *)

type t = private int
(** An unordered pair of distinct node ids, normalised so [u < v] and
    packed into one immediate int as [(u lsl 31) lor v]. Interactions
    are therefore unboxed: a [t array] is a flat int array, and the
    packed integer order coincides with the lexicographic order on
    [(u, v)]. *)

val max_node_id : int
(** Largest representable node id, [2^31 - 1]. *)

val make : int -> int -> t
(** [make a b] is the interaction [{a, b}].
    @raise Invalid_argument if [a = b], either is negative, or either
    exceeds {!max_node_id}. *)

val u : t -> int
(** Smaller endpoint. *)

val v : t -> int
(** Larger endpoint. *)

val involves : t -> int -> bool
(** [involves i x] holds iff [x] is an endpoint of [i]. *)

val other : t -> int -> int
(** [other i x] is the endpoint that is not [x].
    @raise Invalid_argument if [x] is not an endpoint. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** [equal] is integer equality, [compare] the packed integer order
    (lexicographic on [(u, v)]), and [hash] the packed value itself —
    the three are consistent by construction. *)

val to_int : t -> int
(** The packed representation, [(u lsl 31) lor v]. *)

val of_int : int -> t
(** Inverse of {!to_int}, validating.
    @raise Invalid_argument if the int is not a packed interaction. *)

val of_int_unchecked : int -> t
(** Trusted inverse of {!to_int} for flat buffers whose contents were
    packed by this module (schedule buffers, frozen sequences). No
    validation: only feed it values produced by {!to_int}. *)

val unsafe_of_ints : int array -> t array
(** {!of_int_unchecked} over a whole flat buffer, no copy: the same
    array, read as interactions. Same trust contract. *)

val to_pair : t -> int * int
(** [(u, v)] with [u < v]. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{u,v}]. *)

val to_string : t -> string

val dummy : t
(** A fixed placeholder value ([{0,1}]) for array initialisation; never
    meaningful. *)
