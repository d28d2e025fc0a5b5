(** Finite sequences of interactions.

    The sequence index {e is} the time of occurrence: [get s t] is the
    interaction [I_t]. Finite sequences are the objects offline
    analyses (optimal convergecast, cost) operate on; for lazily
    generated, possibly unbounded sequences see {!Schedule}. *)

type t

val of_array : Interaction.t array -> t
(** Takes ownership of the array (no copy). *)

val of_list : Interaction.t list -> t

val of_pairs : (int * int) list -> t
(** Builds each interaction with {!Interaction.make}. *)

val length : t -> int

val get : t -> int -> Interaction.t
(** [get s t] is [I_t]. @raise Invalid_argument out of bounds. *)

val unsafe_get : t -> int -> Interaction.t
(** [get] without the bounds check, for hot loops whose induction
    variable is already bounded by {!length}. Out-of-range access is
    undefined behaviour. *)

val unsafe_array : t -> Interaction.t array
(** The backing flat int array itself, no copy. Read-only by contract:
    mutating it breaks every schedule built over the sequence. *)

val to_array : t -> Interaction.t array
(** Fresh copy. *)

val sub : t -> pos:int -> len:int -> t
(** @raise Invalid_argument on an invalid range. *)

val repeat : t -> int -> t
(** [repeat s k] concatenates [k] copies of [s].
    @raise Invalid_argument if [k < 0]. *)

val rev : t -> t
(** Reversed order — the convergecast/broadcast duality transform. *)

val max_node : t -> int
(** Largest node id mentioned; [-1] for the empty sequence. *)

val iteri : (int -> Interaction.t -> unit) -> t -> unit

val count_involving : t -> int -> int
(** Number of interactions one endpoint of which is the given node. *)

val interactions_of : t -> int -> (int * Interaction.t) list
(** [interactions_of s u] lists [(t, I_t)] for interactions involving
    [u], in time order — the "future of [u]" of Section 3.3 when [s] is
    the suffix of the execution. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
