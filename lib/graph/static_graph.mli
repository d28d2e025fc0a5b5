(** Simple undirected graphs on nodes [0 .. n-1].

    This is the substrate for the "underlying graph" knowledge of
    Section 3.2 of the paper: the graph whose edges are the pairs that
    interact at least once in a sequence. *)

type t

val create : int -> t
(** [create n] is the empty graph on [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph; duplicate edges and both
    orientations are accepted, self-loops are rejected.
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)

val n : t -> int
(** Number of nodes. *)

val edge_count : t -> int
(** Number of (undirected) edges. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts edge [{u,v}] if absent.
    @raise Invalid_argument on out-of-range endpoints or [u = v]. *)

val has_edge : t -> int -> int -> bool
(** Membership test, orientation-insensitive. *)

val neighbors : t -> int -> int list
(** [neighbors g u] lists [u]'s neighbours in increasing id order. *)

val degree : t -> int -> int

val edges : t -> (int * int) list
(** All edges, smaller endpoint first, lexicographically sorted. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds over edges with smaller endpoint first. *)

val copy : t -> t

val equal : t -> t -> bool
(** Same node count and same edge set. *)

val complete : int -> t
(** [complete n] is the clique on [n] nodes. *)

val path : int -> t
(** [path n] is the path [0 - 1 - ... - n-1]. *)

val cycle : int -> t
(** [cycle n] is the cycle on [n] nodes ([n >= 3]).
    @raise Invalid_argument if [n < 3]. *)

val star : int -> t
(** [star n] connects node [0] to every other node. *)

val grid : int -> int -> t
(** [grid rows cols] is the 2D lattice; node [(r, c)] has id
    [r * cols + c]. *)

val is_tree : t -> bool
(** Connected and [n - 1] edges. *)
