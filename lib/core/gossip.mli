(** Dissemination run-core: k-token all-to-all gossip over an
    interaction schedule.

    The second problem family ({!Problem.Dissemination}): token [j]
    starts at node [Problem.token_home] ([j mod n]); when [I_t = {u, v}]
    occurs the two endpoints exchange every token they know (gossip is
    oblivious — there is no per-step decision to make, unlike
    aggregation's transmit-once choice). The run succeeds when every
    node knows all [k] tokens.

    Two implementations with bit-identical results:

    - {!run} tracks knowledge as {e per-token bit-planes}
      ({!Bit_planes}, the layout the lockstep batch engine packs its
      lanes in, with tokens in the role replications play there): node
      [v]'s knowledge is [ceil (k / 63)] native-int words and an
      exchange is one [lor] per word, so cost per interaction is
      O(k / 63);
    - {!run_reference} is a deliberately simple dense boolean-matrix
      replay, the differential-testing oracle.

    A transfer is {e informative} when the receiver learns at least one
    new token from it; informative transfers are what the {!Run_log}
    records (receiver [Interaction.u] logged before receiver
    [Interaction.v] at the same step), so a log replay reconstructs
    every node's knowledge exactly ({!Validate} and
    [Analysis.coverage_times] rely on this).

    Gossip draws no randomness: a run is a function of the schedule
    alone, so R replications over one shared schedule are one run
    repeated R times (standard error 0). There is no replication batch
    here — call {!run} once. *)

type result = {
  stop : Engine.stop_reason;
      (** [All_aggregated] doubles as "problem solved": every node
          covered. The other reasons mean the schedule or the step
          budget ran out first, under {!Engine.run}'s exact rules. *)
  duration : int option;
      (** Time of the exchange that completed the last node, when the
          run succeeded. *)
  steps : int;  (** Interactions processed. *)
  log : Run_log.t;
      (** Informative transfers, chronological. Empty under [`Count]
          recording. *)
  transfer_count : int;
      (** Number of informative transfers, regardless of recording
          mode (at most [n * k] over a run: each transfer teaches its
          receiver at least one token). *)
  coverage : int array;
      (** Per node, the number of tokens known at the end. *)
  complete_nodes : int;
      (** Number of nodes knowing all [k] tokens at the end. *)
}

(** {1 Observers} — {!Engine}'s observer plumbing, over a gossip
    result. *)

type observer = result Engine.watch

val observer :
  ?on_step:(time:int -> Doda_dynamic.Interaction.t -> unit) ->
  ?on_transfer:(time:int -> sender:int -> receiver:int -> unit) ->
  ?on_finish:(result -> unit) ->
  unit ->
  observer
(** [on_step] fires after every interaction (informative or not);
    [on_transfer] after each informative transfer; [on_finish] once
    with the packaged result. *)

(** {1 Runs} *)

val run :
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  problem:Problem.t ->
  Doda_dynamic.Schedule.t ->
  result
(** [run ~problem sched] plays the schedule under k-token gossip
    (bit-plane implementation). [max_steps]/[record] follow
    {!Engine.run}'s rules exactly ([max_steps] mandatory for unbounded
    schedules; [`Count] skips only the log). Works on finite, generator
    and chunked schedules — gossip needs no meet-time oracle, so [--stream]
    runs are first-class.

    @raise Invalid_argument if [problem] is not [Dissemination], or on
    a missing [max_steps] for an unbounded schedule. *)

val run_reference :
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  problem:Problem.t ->
  Doda_dynamic.Schedule.t ->
  result
(** Dense boolean-matrix oracle; result is bit-identical to {!run}
    (differential suite enforces it). O(k) per interaction — use for
    tests, not measurement. *)

val pp_result : Format.formatter -> result -> unit
