(** Time-varying-graph classes: validators and class-constrained
    generators for interaction sequences.

    Casteigts, Flocchini, Quattrociocchi and Santoro's hierarchy
    characterises dynamic networks by which topological guarantees
    hold over time. Adapted to this repo's population-protocol setting
    (one pairwise interaction per time step), four classes are
    implemented, ordered from weakest to strongest:

    {v
       Temporal  ⊇  T_interval(T)  ⊇  Bounded_recurrent(B)   (B >= the
       Temporal  ⊇  Recurrent      ⊇  Bounded_recurrent(B)    footprint
                                                              caveats below)
    v}

    - {!Temporal} — connectivity over time: broadcast from every node
      completes within the sequence (journeys exist between all ordered
      pairs). The weakest assumption under which aggregation is
      solvable at all.
    - {!T_interval}[ w] — every {e tumbling} window of [w] consecutive
      interactions has a connected union graph (the adaptation of
      1-interval/T-interval connectivity: with one edge per step, only
      a window's union can be connected). Implies [Temporal] once the
      sequence holds [n - 1] full windows: each connected window
      informs at least one new node.
    - {!Recurrent} — no footprint edge vanishes: every edge that
      appears at all reappears in the closing half of the sequence
      (the finite-trace proxy for "reappears infinitely often").
    - {!Bounded_recurrent}[ b] — time-bounded recurrence: every
      footprint edge occurs in {e every} sliding window of [b] steps
      (equivalently: first occurrence before [b], consecutive
      occurrences at most [b] apart, last occurrence within [b] of the
      end). With a connected footprint this implies [T_interval b] and,
      for [b <= len / 2], [Recurrent].

    Validators return a {e witness} on failure — the exact window,
    unreachable pair, or edge gap that breaks the class. Generators
    sample schedules {e guaranteed} inside their class (a
    validator⇄generator round-trip suite enforces it) while staying on
    the deterministic per-stream PRNG discipline every other workload
    follows. *)

type t =
  | Temporal
  | T_interval of int  (** window length in interactions, [>= 1] *)
  | Recurrent
  | Bounded_recurrent of int  (** recurrence bound in interactions, [>= 1] *)

val to_string : t -> string
(** ["temporal"] | ["t-interval:W"] | ["recurrent"] |
    ["bounded-recurrent:B"] — inverse of {!parse}. *)

val parse : string -> (t, string) result

val syntax : string
(** One-line syntax summary for help output. *)

(** {1 Validators} *)

type witness =
  | Unreachable of { src : int; dst : int }
      (** no journey from [src] to [dst] ([Temporal]) *)
  | Disconnected_window of { start : int; len : int }
      (** the union graph of [I_start .. I_{start+len-1}] is
          disconnected ([T_interval]) *)
  | Vanished_edge of { u : int; v : int; last_seen : int }
      (** footprint edge absent from the closing half ([Recurrent]) *)
  | Edge_gap of { u : int; v : int; gap_start : int; gap_end : int }
      (** footprint edge absent from the open interval
          [(gap_start, gap_end)] of length [> b]; [gap_start = -1]
          stands for the sequence start, [gap_end = length] for its
          end ([Bounded_recurrent]) *)

val pp_witness : Format.formatter -> witness -> unit

val validate : n:int -> t -> Sequence.t -> (unit, witness) result
(** [validate ~n cls s] classifies a materialised sequence: [Ok ()] iff [s]
    is in [cls], otherwise the first witness in deterministic order
    (scan order for time-indexed violations, first-appearance order
    for edge violations). Windows shorter than [w] at the end of the
    sequence are not checked by [T_interval] (only full tumbling
    windows count). @raise Invalid_argument on a non-positive window
    or bound. *)

val validate_stream :
  n:int -> length:int -> t -> (int -> Interaction.t) -> (unit, witness) result
(** Same verdict as {!validate}, in one strictly forward pass over
    [gen 0 .. gen (length - 1)] — suitable for chunked/streamed traces
    ([T_interval], [Recurrent] and [Bounded_recurrent] only).
    @raise Invalid_argument for [Temporal], which needs random access
    (one flood per source); materialise a prefix instead. *)

(** {1 Classification summary} *)

type summary = {
  nodes : int;
  length : int;
  footprint_edges : int;  (** distinct pairs that interact at all *)
  footprint_connected : bool;
  temporal : (unit, witness) result;
  recurrent : (unit, witness) result;
  min_window : int option;
      (** smallest power-of-two [w] with [T_interval w], or [None] if
          no [w <= length] works (powers of two because tumbling
          windows only compose along the doubling chain) *)
  min_bound : int option;
      (** smallest [b] with [Bounded_recurrent b] (the largest
          sentinel gap over footprint edges); [None] on an empty
          sequence *)
}

val summarize : n:int -> Sequence.t -> summary
(** Everything [doda classify] prints, in one call. *)

(** {1 Class-constrained generators}

    Both generators follow the stateful-generator contract of
    {!Generators.markov_edges}: draws must be requested in
    non-decreasing time order (the schedule layer always does), and
    each consumes the given PRNG stream deterministically, so a
    generator seeded identically replays the identical schedule. *)

val gen_t_interval : Doda_prng.Prng.t -> n:int -> window:int -> int -> Interaction.t
(** Adversarial schedule guaranteed in [T_interval window]: each
    tumbling window hides a fresh uniform spanning tree at shuffled
    positions among uniform filler pairs — connected by construction,
    with nothing else promised.

    [~window:1] is the 1-interval (per-step connectivity) special
    case: back-to-back fresh spanning trees with {e no} fillers, the
    tightest refresh the pairwise-interaction model supports (one
    interaction only connects [n = 2], so for larger [n] the schedule
    realizes — and validates as — [T_interval (n - 1)], every tumbling
    [(n - 1)]-window being exactly one spanning tree).
    @raise Invalid_argument if [1 < window < n - 1] (a window must fit
    a spanning tree). *)

val gen_bounded_recurrent :
  Doda_prng.Prng.t -> n:int -> bound:int -> int -> Interaction.t
(** Schedule guaranteed in [Bounded_recurrent bound] (and, its
    footprint being a spanning tree, in [T_interval bound]): the
    footprint is a uniform random tree, and every tumbling half-window
    of [bound / 2] steps contains all its edges in fresh shuffled
    order plus random footprint fillers — so every sliding
    [bound]-window contains a full half-window, hence every edge.
    @raise Invalid_argument if [bound < 2 * (n - 1)] (a half-window
    must fit the whole footprint). *)
