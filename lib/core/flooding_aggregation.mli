(** Aggregation {e without} the transmit-once constraint — the
    counterfactual that quantifies what the paper's energy constraint
    costs.

    The DODA model forbids a node from transmitting twice, which is
    what makes the problem hard (Theorem 7's Ω(n²) bound hinges on the
    last owner having to meet the sink in person). If nodes could
    retransmit freely, data would spread epidemically and the sink
    would collect everything in Θ(n log n) interactions — matching the
    full-knowledge optimum, but {e online and knowledge-free}.

    This module simulates that unconstrained régime: every node keeps a
    set of datum ids; an interaction unions the two sets into both
    endpoints; the run completes when the sink's set is full — n-token
    gossip over {!Bit_planes}, stopped at the sink. The
    [price] bench compares it against the transmit-once algorithms:
    the gap between knowledge-free flooding (Θ(n log n)) and
    knowledge-free Gathering (Θ(n²)) is the price of single
    transmission. *)

type result = {
  completed : bool;
  duration : int option;  (** Time the sink became complete. *)
  steps : int;
  exchanges : int;  (** Interactions that actually moved data. *)
}

val run : ?max_steps:int -> Doda_dynamic.Schedule.t -> result
(** [run sched] floods from all nodes toward everyone and stops when
    the sink holds all [n] data. [max_steps] as in {!Engine.run}:
    defaults to the schedule length, mandatory for unbounded
    schedules ({!Engine.limit}). *)

val sink_completion :
  n:int -> sink:int -> Doda_dynamic.Sequence.t -> int option
(** Pure offline variant over a finite sequence: first time the sink
    holds all data under epidemic exchange. Equals
    [run] on the corresponding schedule. *)
