module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction

type transmission = Run_log.transmission = {
  time : int;
  sender : int;
  receiver : int;
}

type stop_reason = All_aggregated | Schedule_exhausted | Step_limit

type result = {
  stop : stop_reason;
  duration : int option;
  steps : int;
  log : Run_log.t;
  transmission_count : int;
  holders : bool array;
}

let transmissions r = Run_log.to_list r.log

(* Observer plumbing, polymorphic in the result a run packages, so the
   gossip run-core shares it. *)
type 'r watch = {
  obs_step : (time:int -> Interaction.t -> unit) option;
  obs_transmit : (time:int -> sender:int -> receiver:int -> unit) option;
  obs_finish : ('r -> unit) option;
}

type observer = result watch

let watch ?on_step ?on_transmit ?on_finish () =
  { obs_step = on_step; obs_transmit = on_transmit; obs_finish = on_finish }

let observer = watch

type 'r watchers = {
  step_obs : (time:int -> Interaction.t -> unit) array;
  transmit_obs : (time:int -> sender:int -> receiver:int -> unit) array;
  finish_obs : ('r -> unit) array;
  has_step_obs : bool;
      (* [Array.length step_obs > 0], precomputed: a run-core tests one
         immutable bool per interaction, so the no-observer hot path
         stays branch-predictable and allocation-free. *)
}

let watchers observers =
  let step_obs =
    Array.of_list (List.filter_map (fun o -> o.obs_step) observers)
  in
  {
    step_obs;
    transmit_obs =
      Array.of_list (List.filter_map (fun o -> o.obs_transmit) observers);
    finish_obs =
      Array.of_list (List.filter_map (fun o -> o.obs_finish) observers);
    has_step_obs = Array.length step_obs > 0;
  }

(* Out of line so the run-cores' step functions stay small: only
   called when an observer of the matching kind is installed. *)
let notify_step ws ~t i =
  let obs = ws.step_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) ~time:t i
  done

let notify_transmit ws ~t ~sender ~receiver =
  let obs = ws.transmit_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) ~time:t ~sender ~receiver
  done

let notify_finish ws r =
  let obs = ws.finish_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) r
  done;
  r

(* The run bounds of every run-core: the budget is [max_steps] capped
   by a finite schedule's length, and the clock is compared against the
   length, not the budget, so [max_steps = len] still reports
   exhaustion. *)
let limit ?max_steps ~what schedule =
  match (max_steps, Schedule.length schedule) with
  | Some m, Some len -> Stdlib.min m len
  | Some m, None -> m
  | None, Some len -> len
  | None, None ->
      invalid_arg (what ^ ": max_steps is mandatory for unbounded schedules")

let stop_reason schedule ~clock ~solved =
  if solved then All_aggregated
  else
    match Schedule.length schedule with
    | Some len when clock >= len -> Schedule_exhausted
    | Some _ | None -> Step_limit

type state = {
  algo_name : string;
  source : state -> Interaction.t option;
  instance : Algorithm.instance;
  problem : Problem.t;
  sink : int;  (* [Problem.sink problem], hoisted for the hot path *)
  target : int;
      (* [Problem.target_owners problem]: the owner count at which the
         run has succeeded — also hoisted, the loops test it once per
         interaction. *)
  record_log : bool;
  holds : bool array;
  obs : result watchers;
  log : Run_log.t;
  mutable owner_count : int;
  mutable clock : int;
  mutable tx_count : int;
  mutable last_time : int;
  mutable last_sender : int;
  mutable last_receiver : int;
}

let make_state ~algo_name ~instance ~problem ~record ~observers ~source ~n =
  let holds = Problem.initial_holders problem ~n in
  let owner_count =
    Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 holds
  in
  {
    algo_name;
    source;
    instance;
    problem;
    sink = Problem.sink problem;
    target = Problem.target_owners problem;
    record_log = (record = `All);
    holds;
    obs = watchers observers;
    (* Transmit-once bounds a run's transmissions by [n - 1], so the
       log never reallocates mid-run. *)
    log = Run_log.create ~capacity:n ();
    owner_count;
    clock = 0;
    tx_count = 0;
    last_time = -1;
    last_sender = -1;
    last_receiver = -1;
  }

let start ?knowledge ?(record = `All) ?(observers = []) (algo : Algorithm.t)
    schedule =
  let n = Schedule.n schedule in
  let sink = Schedule.sink schedule in
  let knowledge =
    match knowledge with
    | Some k -> k
    | None -> Knowledge.for_schedule schedule algo.requires
  in
  Algorithm.check_knowledge algo.name knowledge algo.requires;
  make_state ~algo_name:algo.name
    ~instance:(algo.make ~n ~sink knowledge)
    ~problem:(Problem.aggregation ~sink) ~record ~observers
    ~source:(fun st -> Schedule.get schedule st.clock)
    ~n

let start_source ?(knowledge = Knowledge.empty) ?record ?observers ~n ~sink
    ~source (algo : Algorithm.t) =
  if n < 1 then invalid_arg "Engine.start_source: need at least one node";
  if sink < 0 || sink >= n then
    invalid_arg "Engine.start_source: sink out of range";
  Algorithm.check_knowledge algo.name knowledge algo.requires;
  make_state ~algo_name:algo.name
    ~instance:(algo.make ~n ~sink knowledge)
    ~problem:(Problem.aggregation ~sink)
    ~record:(Option.value record ~default:`All)
    ~observers:(Option.value observers ~default:[])
    ~source ~n

type step_outcome = Stepped of transmission option | Finished of stop_reason

(* Shared model enforcement: validate the algorithm's decision and
   commit the transmission at time [t]. *)
let commit st ~t ~i receiver =
  if not (Interaction.involves i receiver) then
    invalid_arg
      (Printf.sprintf "Engine.step: %s returned a non-endpoint receiver"
         st.algo_name);
  let sender = Interaction.other i receiver in
  if sender = st.sink then
    invalid_arg
      (Printf.sprintf "Engine.step: %s made the sink transmit" st.algo_name);
  st.holds.(sender) <- false;
  st.owner_count <- st.owner_count - 1;
  st.tx_count <- st.tx_count + 1;
  st.last_time <- t;
  st.last_sender <- sender;
  st.last_receiver <- receiver;
  sender

(* The run-core: process interaction [i] at time [t]. Every execution —
   schedule-backed [run], adversary-backed [run_state], and the manual
   [step] API — goes through this one function, so model enforcement
   and observation cannot diverge between drivers. [instance] and
   [holds] are [st.instance]/[st.holds], hoisted by callers whose loop
   is hot. *)
let[@inline] exec_step st (instance : Algorithm.instance) holds ~t i =
  instance.observe ~time:t i;
  let a = Interaction.u i and b = Interaction.v i in
  (if holds.(a) && holds.(b) then
     match instance.decide ~time:t i with
     | None -> ()
     | Some receiver ->
         let sender = commit st ~t ~i receiver in
         if st.record_log then Run_log.add st.log ~time:t ~sender ~receiver;
         if Array.length st.obs.transmit_obs > 0 then
           notify_transmit st.obs ~t ~sender ~receiver);
  if st.obs.has_step_obs then notify_step st.obs ~t i;
  st.clock <- t + 1

let step st =
  if st.owner_count <= st.target then Finished All_aggregated
  else
    match st.source st with
    | None -> Finished Schedule_exhausted
    | Some i ->
        let before = st.tx_count in
        exec_step st st.instance st.holds ~t:st.clock i;
        Stepped
          (if st.tx_count > before then
             Some
               {
                 time = st.last_time;
                 sender = st.last_sender;
                 receiver = st.last_receiver;
               }
           else None)

let time st = st.clock
let owners st = st.owner_count
let problem st = st.problem
let owns st v = st.holds.(v)
let holders_snapshot st = Array.copy st.holds
let live_holders st = st.holds

let last_transmission st =
  if st.tx_count = 0 then None
  else
    Some
      {
        time = st.last_time;
        sender = st.last_sender;
        receiver = st.last_receiver;
      }

let finish st stop =
  notify_finish st.obs
    {
      stop;
      duration = (if stop = All_aggregated then Some st.last_time else None);
      steps = st.clock;
      log = st.log;
      transmission_count = st.tx_count;
      holders = Array.copy st.holds;
    }

let run ?knowledge ?max_steps ?record ?observers (algo : Algorithm.t) schedule =
  let limit = limit ?max_steps ~what:"Engine.run" schedule in
  let st = start ?knowledge ?record ?observers algo schedule in
  (* Hot loop. Equivalent to iterating [step], but without the
     per-interaction [Stepped]/[option] wrappers: [clock < limit]
     guarantees the schedule has an interaction at [clock] (finite
     schedules because [limit <= length]; generators never run out). *)
  let instance = st.instance and holds = st.holds in
  let cur = Schedule.cursor schedule in
  while st.owner_count > st.target && st.clock < limit do
    let t = st.clock in
    if t >= cur.hi then Schedule.advance cur t;
    exec_step st instance holds ~t (Array.unsafe_get cur.blk (t - cur.base))
  done;
  finish st
    (stop_reason schedule ~clock:st.clock
       ~solved:(st.owner_count <= st.target))

let run_state st ~max_steps =
  let instance = st.instance and holds = st.holds in
  let stop = ref None in
  while !stop = None do
    if st.owner_count <= st.target then stop := Some All_aggregated
    else if st.clock >= max_steps then stop := Some Step_limit
    else
      match st.source st with
      | None -> stop := Some Schedule_exhausted
      | Some i -> exec_step st instance holds ~t:st.clock i
  done;
  finish st (Option.get !stop)

let count_owners result =
  Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 result.holders

let pp_result ppf r =
  let reason =
    match r.stop with
    | All_aggregated -> "aggregated"
    | Schedule_exhausted -> "schedule exhausted"
    | Step_limit -> "step limit"
  in
  Format.fprintf ppf "@[<v>stop: %s@,steps: %d@,transmissions: %d@," reason
    r.steps r.transmission_count;
  (match r.duration with
  | Some d -> Format.fprintf ppf "duration: %d@," d
  | None -> Format.fprintf ppf "duration: -@,");
  Format.fprintf ppf "owners left: %d@]" (count_owners r)
