(** The underlying graph of a sequence (Section 3.2): the static graph
    whose edge set is the pairs that interact at least once. *)

val of_sequence : n:int -> Sequence.t -> Doda_graph.Static_graph.t
(** [of_sequence ~n s] is the underlying graph of [s] on [n] nodes. *)

val recurrent_edges : n:int -> Sequence.t -> period:int -> Doda_graph.Static_graph.t
(** [recurrent_edges ~n s ~period] keeps only edges that appear in
    {e every} window of [period] consecutive interactions that fits in
    [s] — a finite-horizon proxy for "interactions occurring infinitely
    often" (Theorem 4). With [period >= length s] this is
    {!of_sequence}. *)
