(** Typed requests and responses of the serve protocol, with JSON
    codecs for both directions (the same codecs serve the server, the
    client, and the tests — asymmetry bugs cannot hide).

    Every message is one ['J'] {!Frame.t}. A request that carries a
    contact trace (an [upload]) is followed by ['D'] frames holding
    raw trace-file lines, terminated by an empty ['D'] frame; the
    server feeds them straight into a chunked schedule
    ([Schedule.of_fun_chunked] over [Trace.stream_lines], built by
    {!Doda_sim.Job.run}) so upload memory stays O(block) regardless of
    trace length.

    [run_req] and [sweep_req] are {!Doda_sim.Job}'s records: a served
    job and the same job on the CLI share one field list, one set of
    defaults and one error message. *)

type upload = Doda_sim.Job.upload
type run_req = Doda_sim.Job.run
type sweep_req = Doda_sim.Job.sweep

type classify_req = {
  window : int option;
  bound : int option;
  upload : upload;
}

type request =
  | Run of run_req
  | Sweep of sweep_req
  | Classify of classify_req
  | Cancel of int  (** job id to cancel (queued or running) *)

type response =
  | Accepted of { job : int; queue_depth : int }
      (** admission verdict, written by the connection thread before
          the job can produce any output *)
  | Rejected of { reason : string }
  | Started of { job : int }  (** the executor picked the job up *)
  | Point of { job : int; n : int; cells : string list }
      (** one finished sweep point; [cells] is the table row
          {!Doda_sim.Job.sweep} formats for [doda sweep] too, so a
          client-written CSV (under {!Doda_sim.Job.sweep_header}) is
          byte-identical to [doda sweep --csv] *)
  | Summary of { job : int; exponent : (float * float) option }
      (** end of a sweep; [(slope, r2)] when >= 2 points *)
  | Run_result of {
      job : int;
      stop : string;  (** {!stop_strings} *)
      duration : int option;
      steps : int;
      transmissions : int;
      problem : string option;
    }
  | Classify_result of { job : int; report : string list }
      (** the lines [doda classify] would print, verbatim *)
  | Cancelled of { job : int }
  | Checkpointed of { job : int; path : string }
      (** a draining server stopped this sweep after flushing its
          checkpoint; rerun offline with [--checkpoint path] *)
  | Cancel_ack of { job : int; found : bool }
  | Error_response of { job : int option; message : string }

val stop_string : Doda_core.Engine.stop_reason -> string
(** ["all-aggregated"] | ["schedule-exhausted"] | ["step-limit"]. *)

val request_to_json : request -> Doda_sim.Json.t
val request_of_json : Doda_sim.Json.t -> (request, string) result
(** Decoding applies {!Doda_sim.Job}'s defaults to omitted fields — the
    ones the CLI flags read — and ignores unknown fields: a job file
    may carry client-only extras like [trace_file]. *)

val upload_to_json : upload -> Doda_sim.Json.t
(** The ["upload"] header object, for clients adding it to a job. *)

val response_to_json : response -> Doda_sim.Json.t
val response_of_json : Doda_sim.Json.t -> (response, string) result
