(** The interface of distributed online data aggregation algorithms.

    A DODA algorithm (Section 2.1) takes an interaction [I_t = {u, v}]
    and its time [t] and outputs [u], [v] or [⊥]: the output node, if
    any, {e receives} the other node's data. The engine consults
    {!instance.decide} only when both endpoints still own data (the
    paper ignores the output otherwise), and returning [Some r] is a
    commitment: the engine applies the transmission, so an instance may
    update its internal memory inside [decide].

    [instance.observe] is called on {e every} interaction, before any
    [decide], and models the exchange of control information between
    the interacting nodes (the paper allows nodes to "exchange control
    information before deciding whether they transmit"); it is where
    non-oblivious algorithms update per-node memory. *)

type instance = {
  observe : time:int -> Doda_dynamic.Interaction.t -> unit;
      (** Control-information exchange; invoked on every interaction. *)
  decide : time:int -> Doda_dynamic.Interaction.t -> int option;
      (** [decide ~time i] is [Some receiver] (an endpoint of [i]) or
          [None]. Only invoked when both endpoints own data. *)
}

(** {1 Batch rules}

    A batch rule tells [Batch_engine.run_reps] how [R] replications of
    an algorithm over one schedule relate. Every deterministic
    algorithm — Waiting, Gathering and its variants, Waiting Greedy and
    the other meet-time policies — is a function of the interaction
    sequence, so its replications are one run: it carries [Once], and
    [run_reps] executes its {!instance} once through [Engine.run]. Only
    the coin algorithms draw per replication; their rules describe the
    decision precisely enough for [run_reps] to advance a whole word of
    replications with one [land] per interaction, and they must decide
    identically to their scalar instances on every interaction (the
    batch differential tests enforce this). Algorithms that need
    knowledge a batched schedule cannot give (tree aggregation, full
    knowledge, future gossip, exact Waiting Greedy) leave
    [batch = None]. *)

type batch_rule =
  | Once
      (** Deterministic: every replication is the same run, executed
          once. *)
  | Coin_sink of float
      (** Transmit to the sink on a sink interaction, gated by an
          independent Bernoulli(p) per opportunity; otherwise do
          nothing (coin-waiting). *)
  | Coin_gather of float
      (** The sink receives when involved; elsewhere the larger
          endpoint sends to the smaller one, gated by Bernoulli(p)
          (coin-gathering). *)

type t = {
  name : string;
  oblivious : bool;
      (** True when the algorithm keeps no per-node memory between
          interactions (the class [D∅ODA] of the paper). *)
  requires : Knowledge.requirement list;
      (** Oracles the algorithm needs; checked by the engine. *)
  batch : batch_rule option;
      (** How [Batch_engine.run_reps] executes replications, if it
          can. *)
  make : n:int -> sink:int -> Knowledge.t -> instance;
      (** Fresh instance for one run.
          @raise Invalid_argument when knowledge is insufficient. *)
}

val no_observation : time:int -> Doda_dynamic.Interaction.t -> unit
(** A no-op [observe], for oblivious algorithms. *)

val hash_coin : time:int -> int -> int -> bool
(** The deterministic tiebreak coin shared by the meet-time policies
    and the hash gathering variant: a fixed avalanche of
    [(time, a, b)], admissible wherever the two endpoints are
    exchangeable. *)

val check_knowledge : string -> Knowledge.t -> Knowledge.requirement list -> unit
(** @raise Invalid_argument naming the algorithm and the missing
    oracles when the knowledge does not satisfy the requirements. *)
