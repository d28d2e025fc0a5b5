(** Problem families: what a run over an interaction sequence is trying
    to achieve.

    The paper studies one problem — single-sink {e data aggregation}
    (every node starts with a datum; the run succeeds when the sink is
    the sole owner). This module names that problem as a value and adds
    a second family, k-token {e dissemination} (all-to-all gossip in
    the style of Augustine et al.: k tokens start scattered over the
    nodes and the run succeeds when every node has learnt all k), so
    that engines, validators, analyses, benches and the CLI can
    dispatch on the problem instead of hard-coding "one sink,
    aggregation".

    The run-cores stay specialised — {!Engine}/{!Batch_engine} execute
    aggregation, {!Gossip} executes dissemination — but the parameters
    they used to hard-code (initial ownership, termination predicate,
    success criterion) are read from here. *)

type t =
  | Aggregation of { sink : int }
      (** Transmit-once convergecast to [sink] — the paper's DODA
          problem, executed by {!Engine} and {!Batch_engine}. *)
  | Dissemination of { k : int }
      (** k-token all-to-all gossip: token [j] starts at node
          [j mod n] and every node must learn all [k] tokens.
          Executed by {!Gossip}. *)

val aggregation : sink:int -> t
(** @raise Invalid_argument if [sink < 0]. *)

val dissemination : k:int -> t
(** @raise Invalid_argument if [k < 1]. *)

val name : t -> string
(** ["aggregation"] or ["gossip:K"] — inverse of {!parse}. *)

val syntax : string
(** One-line syntax summary for help output. *)

val parse : ?sink:int -> string -> (t, string) result
(** [parse ~sink s] reads ["aggregation"] (using [sink], default [0])
    or ["gossip:K"]. Human-oriented error messages on [Error]. *)

val describe : t -> string
(** One-line human description of the success criterion. *)

(** {1 Aggregation parameters}

    Consulted by {!Engine} and {!Batch_engine}; raise
    [Invalid_argument] on a [Dissemination] problem. *)

val sink : t -> int

val initial_holders : t -> n:int -> bool array
(** Who owns data at time 0 (every node, for aggregation). *)

val target_owners : t -> int
(** The owner count at which the run has succeeded ([1]: only the sink
    still owns data). *)

(** {1 Dissemination parameters}

    Consulted by {!Gossip}; raise [Invalid_argument] on an
    [Aggregation] problem. *)

val tokens : t -> int
(** The number of tokens, [k]. *)

val token_home : t -> n:int -> token:int -> int
(** Initial location of a token: [token mod n]. *)

val covered : t -> known:int -> bool
(** Whether a node knowing [known] tokens has learnt everything
    ([known = k]) — the per-node success criterion. *)
