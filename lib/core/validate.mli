(** Independent validation of executions and convergecast plans.

    A second, deliberately simple implementation of the model rules,
    used to cross-check the engine and the plan extractor in tests
    (redundancy against bugs in the main path), and to vet externally
    produced schedules. Runs in O(T + n) over the flat {!Run_log}. *)

type violation =
  | Out_of_order of int  (** transmission index not in time order *)
  | Bad_time of int  (** time outside the sequence *)
  | Wrong_interaction of int
      (** sender/receiver are not the endpoints of [I_t] *)
  | Sender_without_data of int  (** sender had already transmitted *)
  | Receiver_without_data of int  (** receiver had already transmitted *)
  | Sink_transmitted of int
  | Duplicate_sender of int  (** node transmits a second time *)
  | Uninformative of int
      (** gossip transfer that taught the receiver nothing — a
          {!Gossip} log only records informative transfers *)

val pp_violation : Format.formatter -> violation -> unit

val execution :
  n:int -> sink:int -> Doda_dynamic.Sequence.t -> Run_log.t -> violation list
(** [execution ~n ~sink s log] replays the transmission log against the
    model rules; returns all violations ([[]] iff the log is a valid
    partial execution). Hand-built lists go through
    {!Run_log.of_list}. *)

val complete :
  n:int -> sink:int -> Doda_dynamic.Sequence.t -> Run_log.t -> bool
(** Valid {e and} every non-sink node transmitted — a full aggregation. *)

val gossip :
  n:int ->
  problem:Problem.t ->
  Doda_dynamic.Sequence.t ->
  Run_log.t ->
  violation list
(** [gossip ~n ~problem s log] replays a {!Gossip} informative-transfer
    log: times in order (equal times allowed — one interaction can log
    one transfer per direction), endpoints matching [I_t], and every
    transfer informative under the replayed per-token knowledge.
    @raise Invalid_argument if [problem] is not [Dissemination]. *)

val gossip_complete :
  n:int -> problem:Problem.t -> Doda_dynamic.Sequence.t -> Run_log.t -> bool
(** Valid {e and} the replayed knowledge covers all [k] tokens at every
    node — a full dissemination. *)

val problem :
  Problem.t -> n:int -> Doda_dynamic.Sequence.t -> Run_log.t -> violation list
(** Dispatch on the problem family: {!execution} for [Aggregation]
    (including the duplicate-sender check), {!gossip} for
    [Dissemination]. *)

val plan :
  n:int -> sink:int -> Doda_dynamic.Sequence.t -> Convergecast.plan -> violation list
(** Check a convergecast plan by converting it to a transmission log. *)
