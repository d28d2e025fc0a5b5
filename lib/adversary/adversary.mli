(** Adversaries (Section 2.2): the entity choosing which interaction
    occurs at each time step.

    - the {e oblivious} adversary commits to the whole sequence before
      the execution starts ({!of_sequence}, {!of_generator});
    - the {e adaptive online} adversary observes the execution so far
      and picks the next interaction accordingly (a [next] function
      over the {!view});
    - the {e randomized} adversary draws interactions uniformly
      ({!Randomized}).

    Adaptive adversaries are played against an algorithm by
    {!Duel.run}. *)

type view = {
  time : int;  (** Time of the interaction about to be chosen. *)
  holders : bool array;  (** Current data ownership; do not mutate. *)
  last_transmission : Doda_core.Engine.transmission option;
      (** The most recent transmission, if any — what the adaptive
          adversary of the paper reacts to. *)
}

type t = {
  name : string;
  next : view -> Doda_dynamic.Interaction.t option;
      (** [None] ends the execution (finite adversaries). *)
}

val of_sequence : name:string -> Doda_dynamic.Sequence.t -> t
(** Oblivious adversary replaying a committed finite sequence. *)

val of_generator : name:string -> (int -> Doda_dynamic.Interaction.t) -> t
(** Oblivious adversary from a time-indexed generator (never ends). *)

val limit : int -> t -> t
(** [limit k adv] plays [adv] for at most [k] interactions. *)
