module Json = Doda_sim.Json
module Job = Doda_sim.Job

type upload = Job.upload
type run_req = Job.run
type sweep_req = Job.sweep

type classify_req = { window : int option; bound : int option; upload : upload }

type request =
  | Run of run_req
  | Sweep of sweep_req
  | Classify of classify_req
  | Cancel of int

type response =
  | Accepted of { job : int; queue_depth : int }
  | Rejected of { reason : string }
  | Started of { job : int }
  | Point of { job : int; n : int; cells : string list }
  | Summary of { job : int; exponent : (float * float) option }
  | Run_result of {
      job : int;
      stop : string;
      duration : int option;
      steps : int;
      transmissions : int;
      problem : string option;
    }
  | Classify_result of { job : int; report : string list }
  | Cancelled of { job : int }
  | Checkpointed of { job : int; path : string }
  | Cancel_ack of { job : int; found : bool }
  | Error_response of { job : int option; message : string }

let stop_string = function
  | Doda_core.Engine.All_aggregated -> "all-aggregated"
  | Doda_core.Engine.Schedule_exhausted -> "schedule-exhausted"
  | Doda_core.Engine.Step_limit -> "step-limit"

(* --- decoding helpers ------------------------------------------------ *)

let int_field ?default name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some v -> Ok v
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "missing or ill-typed int field %S" name))

let str_field ?default name j =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some v -> Ok v
  | None -> (
      match default with
      | Some d -> Ok d
      | None ->
          Error (Printf.sprintf "missing or ill-typed string field %S" name))

let opt_int name j = Option.bind (Json.member name j) Json.to_int
let opt_str name j = Option.bind (Json.member name j) Json.to_string_opt

let flag name j =
  match Option.bind (Json.member name j) Json.to_bool with
  | Some b -> b
  | None -> false

let int_list_field ~default name j =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match Json.to_int x with
            | Some i -> go (i :: acc) rest
            | None -> Error (Printf.sprintf "field %S: non-integer element" name))
      in
      go [] items
  | Some _ -> Error (Printf.sprintf "field %S must be a list of ints" name)

let str_list_field name j =
  match Json.member name j with
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match Json.to_string_opt x with
            | Some s -> go (s :: acc) rest
            | None -> Error (Printf.sprintf "field %S: non-string element" name))
      in
      go [] items
  | _ -> Error (Printf.sprintf "missing list field %S" name)

let ( let* ) = Result.bind

let upload_of_json j =
  let* nodes = int_field "nodes" j in
  let* length = int_field "length" j in
  if nodes < 1 then Error "upload: nodes must be >= 1"
  else if length < 0 then Error "upload: negative length"
  else Ok { Job.nodes; length }

let upload_to_json (u : upload) =
  Json.Obj [ ("nodes", Json.Int u.nodes); ("length", Json.Int u.length) ]

let opt_upload name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some u ->
      let* u = upload_of_json u in
      Ok (Some u)

(* --- requests -------------------------------------------------------- *)

let request_to_json = function
  | Run r ->
      Json.Obj
        (List.concat
           [
             [
               ("cmd", Json.String "run");
               ("algo", Json.String r.algo);
               ("n", Json.Int r.n);
               ("sink", Json.Int r.sink);
               ("seed", Json.Int r.seed);
               ("source", Json.String r.source);
             ];
             (match r.max_steps with
             | Some m -> [ ("max_steps", Json.Int m) ]
             | None -> []);
             (match r.problem with
             | Some p -> [ ("problem", Json.String p) ]
             | None -> []);
             [ ("stream", Json.Bool r.stream) ];
             (match r.upload with
             | Some u -> [ ("upload", upload_to_json u) ]
             | None -> []);
           ])
  | Sweep s ->
      Json.Obj
        (List.concat
           [
             [
               ("cmd", Json.String "sweep");
               ("algo", Json.String s.algo);
               ("ns", Json.List (List.map (fun n -> Json.Int n) s.ns));
               ("reps", Json.Int s.reps);
               ("seed", Json.Int s.seed);
               ("source", Json.String s.source);
             ];
             (match s.max_steps with
             | Some m -> [ ("max_steps", Json.Int m) ]
             | None -> []);
             [ ("batch", Json.Bool s.batch); ("stream", Json.Bool s.stream) ];
             (match s.checkpoint with
             | Some p -> [ ("checkpoint", Json.String p) ]
             | None -> []);
           ])
  | Classify c ->
      Json.Obj
        (List.concat
           [
             [ ("cmd", Json.String "classify") ];
             (match c.window with
             | Some w -> [ ("window", Json.Int w) ]
             | None -> []);
             (match c.bound with
             | Some b -> [ ("bound", Json.Int b) ]
             | None -> []);
             [ ("upload", upload_to_json c.upload) ];
           ])
  | Cancel job ->
      Json.Obj [ ("cmd", Json.String "cancel"); ("job", Json.Int job) ]

let request_of_json j =
  let* cmd = str_field "cmd" j in
  match cmd with
  | "run" ->
      let* algo = str_field ~default:Job.default_algo "algo" j in
      let* n = int_field ~default:Job.default_n "n" j in
      let* sink = int_field ~default:Job.default_sink "sink" j in
      let* seed = int_field ~default:Job.default_seed "seed" j in
      let* source = str_field ~default:Job.default_source "source" j in
      let* upload = opt_upload "upload" j in
      Ok
        (Run
           {
             Job.algo;
             n;
             sink;
             seed;
             source;
             max_steps = opt_int "max_steps" j;
             problem = opt_str "problem" j;
             stream = flag "stream" j;
             upload;
           })
  | "sweep" ->
      let* algo = str_field ~default:Job.default_algo "algo" j in
      let* ns = int_list_field ~default:Job.default_ns "ns" j in
      let* reps = int_field ~default:Job.default_reps "reps" j in
      let* seed = int_field ~default:Job.default_seed "seed" j in
      let* source = str_field ~default:Job.default_source "source" j in
      Ok
        (Sweep
           {
             Job.algo;
             ns;
             reps;
             seed;
             source;
             max_steps = opt_int "max_steps" j;
             batch = flag "batch" j;
             stream = flag "stream" j;
             checkpoint = opt_str "checkpoint" j;
           })
  | "classify" -> (
      match Json.member "upload" j with
      | None -> Error "classify request needs an \"upload\" header"
      | Some u ->
          let* upload = upload_of_json u in
          Ok
            (Classify
               { window = opt_int "window" j; bound = opt_int "bound" j; upload }))
  | "cancel" ->
      let* job = int_field "job" j in
      Ok (Cancel job)
  | other -> Error (Printf.sprintf "unknown command %S" other)

(* --- responses ------------------------------------------------------- *)

let response_to_json = function
  | Accepted { job; queue_depth } ->
      Json.Obj
        [
          ("resp", Json.String "accepted");
          ("job", Json.Int job);
          ("queue_depth", Json.Int queue_depth);
        ]
  | Rejected { reason } ->
      Json.Obj
        [ ("resp", Json.String "rejected"); ("reason", Json.String reason) ]
  | Started { job } ->
      Json.Obj [ ("resp", Json.String "started"); ("job", Json.Int job) ]
  | Point { job; n; cells } ->
      Json.Obj
        [
          ("resp", Json.String "point");
          ("job", Json.Int job);
          ("n", Json.Int n);
          ("cells", Json.List (List.map (fun c -> Json.String c) cells));
        ]
  | Summary { job; exponent } ->
      Json.Obj
        (("resp", Json.String "summary") :: ("job", Json.Int job)
        ::
        (match exponent with
        | Some (slope, r2) ->
            [ ("exponent", Json.Float slope); ("r2", Json.Float r2) ]
        | None -> []))
  | Run_result { job; stop; duration; steps; transmissions; problem } ->
      Json.Obj
        (List.concat
           [
             [
               ("resp", Json.String "run_result");
               ("job", Json.Int job);
               ("stop", Json.String stop);
             ];
             (match duration with
             | Some d -> [ ("duration", Json.Int d) ]
             | None -> []);
             [
               ("steps", Json.Int steps);
               ("transmissions", Json.Int transmissions);
             ];
             (match problem with
             | Some p -> [ ("problem", Json.String p) ]
             | None -> []);
           ])
  | Classify_result { job; report } ->
      Json.Obj
        [
          ("resp", Json.String "classify_result");
          ("job", Json.Int job);
          ("report", Json.List (List.map (fun l -> Json.String l) report));
        ]
  | Cancelled { job } ->
      Json.Obj [ ("resp", Json.String "cancelled"); ("job", Json.Int job) ]
  | Checkpointed { job; path } ->
      Json.Obj
        [
          ("resp", Json.String "checkpointed");
          ("job", Json.Int job);
          ("path", Json.String path);
        ]
  | Cancel_ack { job; found } ->
      Json.Obj
        [
          ("resp", Json.String "cancel_ack");
          ("job", Json.Int job);
          ("found", Json.Bool found);
        ]
  | Error_response { job; message } ->
      Json.Obj
        (("resp", Json.String "error")
        ::
        (match job with Some id -> [ ("job", Json.Int id) ] | None -> [])
        @ [ ("message", Json.String message) ])

let response_of_json j =
  let* resp = str_field "resp" j in
  match resp with
  | "accepted" ->
      let* job = int_field "job" j in
      let* queue_depth = int_field "queue_depth" j in
      Ok (Accepted { job; queue_depth })
  | "rejected" ->
      let* reason = str_field "reason" j in
      Ok (Rejected { reason })
  | "started" ->
      let* job = int_field "job" j in
      Ok (Started { job })
  | "point" ->
      let* job = int_field "job" j in
      let* n = int_field "n" j in
      let* cells = str_list_field "cells" j in
      Ok (Point { job; n; cells })
  | "summary" ->
      let* job = int_field "job" j in
      let exponent =
        match
          ( Option.bind (Json.member "exponent" j) Json.to_float_opt,
            Option.bind (Json.member "r2" j) Json.to_float_opt )
        with
        | Some e, Some r -> Some (e, r)
        | _ -> None
      in
      Ok (Summary { job; exponent })
  | "run_result" ->
      let* job = int_field "job" j in
      let* stop = str_field "stop" j in
      let* steps = int_field "steps" j in
      let* transmissions = int_field "transmissions" j in
      Ok
        (Run_result
           {
             job;
             stop;
             duration = opt_int "duration" j;
             steps;
             transmissions;
             problem = opt_str "problem" j;
           })
  | "classify_result" ->
      let* job = int_field "job" j in
      let* report = str_list_field "report" j in
      Ok (Classify_result { job; report })
  | "cancelled" ->
      let* job = int_field "job" j in
      Ok (Cancelled { job })
  | "checkpointed" ->
      let* job = int_field "job" j in
      let* path = str_field "path" j in
      Ok (Checkpointed { job; path })
  | "cancel_ack" ->
      let* job = int_field "job" j in
      let found = flag "found" j in
      Ok (Cancel_ack { job; found })
  | "error" ->
      let* message = str_field "message" j in
      Ok (Error_response { job = opt_int "job" j; message })
  | other -> Error (Printf.sprintf "unknown response %S" other)
