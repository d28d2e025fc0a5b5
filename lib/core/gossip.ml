module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Interaction = Doda_dynamic.Interaction

(* Same word width as the lockstep batch engine: tokens here play the
   role replications play there, one bit per token in a native int. *)
let word_bits = Batch_engine.word_bits

type result = {
  stop : Engine.stop_reason;
  duration : int option;
  steps : int;
  log : Run_log.t;
  transfer_count : int;
  coverage : int array;
  complete_nodes : int;
}

type observer = {
  g_step : (time:int -> Interaction.t -> unit) option;
  g_transfer : (time:int -> sender:int -> receiver:int -> unit) option;
  g_finish : (result -> unit) option;
}

let observer ?on_step ?on_transfer ?on_finish () =
  { g_step = on_step; g_transfer = on_transfer; g_finish = on_finish }

(* Observer callback arrays, same plumbing as [Engine.make_state]. *)
type obs_arrays = {
  step_obs : (time:int -> Interaction.t -> unit) array;
  transfer_obs : (time:int -> sender:int -> receiver:int -> unit) array;
  finish_obs : (result -> unit) array;
  has_step_obs : bool;
}

let obs_arrays observers =
  let step_obs =
    Array.of_list (List.filter_map (fun o -> o.g_step) observers)
  in
  {
    step_obs;
    transfer_obs =
      Array.of_list (List.filter_map (fun o -> o.g_transfer) observers);
    finish_obs =
      Array.of_list (List.filter_map (fun o -> o.g_finish) observers);
    has_step_obs = Array.length step_obs > 0;
  }

let notify_step obs ~t i =
  let a = obs.step_obs in
  for idx = 0 to Array.length a - 1 do
    (Array.unsafe_get a idx) ~time:t i
  done

let notify_transfer obs ~t ~sender ~receiver =
  let a = obs.transfer_obs in
  for idx = 0 to Array.length a - 1 do
    (Array.unsafe_get a idx) ~time:t ~sender ~receiver
  done

(* Same limit and stop-reason rules as [Engine.run]. *)
let limit_for ?max_steps schedule ~what =
  match (max_steps, Schedule.length schedule) with
  | Some m, Some len -> Stdlib.min m len
  | Some m, None -> m
  | None, Some len -> len
  | None, None ->
      invalid_arg (what ^ ": max_steps is mandatory for unbounded schedules")

let stop_for schedule ~final_clock ~solved =
  if solved then Engine.All_aggregated
  else
    match Schedule.length schedule with
    | Some len when final_clock >= len -> Engine.Schedule_exhausted
    | Some _ | None -> Engine.Step_limit

(* One decoder for live, frozen and chunked schedules: gossip has no
   meet-time oracle to serve, so forward reads cover the chunked case
   too. Chunked schedules read through a cached block view — one
   bounds check per step, one advance (and, under prefetch, one buffer
   swap) per block; see [Batch_engine.decoder] for why the cached
   array can never be read stale. *)
let decoder schedule =
  match Schedule.backing schedule with
  | Some seq -> fun t -> Sequence.unsafe_get seq t
  | None when Schedule.is_chunked schedule ->
      let blk = ref [||] and base = ref 0 and hi = ref 0 in
      fun t ->
        if t >= !hi || t < !base then begin
          let b, off, avail = Schedule.chunk_view schedule t in
          blk := b;
          base := t - off;
          hi := t + avail
        end;
        Interaction.of_int_unchecked (Array.unsafe_get !blk (t - !base))
  | None -> fun t -> Schedule.get_exn schedule t

let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let finish obs r =
  let a = obs.finish_obs in
  for idx = 0 to Array.length a - 1 do
    (Array.unsafe_get a idx) r
  done;
  r

let tokens_of ~what problem =
  match problem with
  | Problem.Dissemination _ -> Problem.tokens problem
  | Problem.Aggregation _ ->
      invalid_arg (what ^ ": not a dissemination problem")

(* [k] low bits set; [-1] is all 63 ones. *)
let mask_of k = if k >= word_bits then -1 else (1 lsl k) - 1

let run ?max_steps ?(record = `All) ?(observers = []) ~problem schedule =
  let k = tokens_of ~what:"Gossip.run" problem in
  let n = Schedule.n schedule in
  let limit = limit_for ?max_steps schedule ~what:"Gossip.run" in
  let obs = obs_arrays observers in
  let decode = decoder schedule in
  let w = (k + word_bits - 1) / word_bits in
  (* Plane word [v * w + word]: bit [b] set iff node [v] knows token
     [word * word_bits + b]. *)
  let planes = Array.make (n * w) 0 in
  let full =
    Array.init w (fun word ->
        mask_of (Stdlib.min word_bits (k - (word * word_bits))))
  in
  for j = 0 to k - 1 do
    let home = Problem.token_home problem ~n ~token:j in
    let word = j / word_bits and bit = 1 lsl (j mod word_bits) in
    planes.((home * w) + word) <- planes.((home * w) + word) lor bit
  done;
  let complete = Array.make n false in
  let ncomplete = ref 0 in
  for v = 0 to n - 1 do
    let fullv = ref true in
    for word = 0 to w - 1 do
      if planes.((v * w) + word) <> full.(word) then fullv := false
    done;
    if !fullv then begin
      complete.(v) <- true;
      incr ncomplete
    end
  done;
  let record_all = record = `All in
  let log = Run_log.create ~capacity:n () in
  let clock = ref 0 in
  let last_time = ref (-1) in
  let transfer_count = ref 0 in
  while !ncomplete < n && !clock < limit do
    let t = !clock in
    let i = decode t in
    let u = Interaction.u i and v = Interaction.v i in
    let bu = u * w and bv = v * w in
    let du = ref false and dv = ref false in
    for word = 0 to w - 1 do
      let pu = planes.(bu + word) and pv = planes.(bv + word) in
      let m = pu lor pv in
      if m <> pu then begin
        du := true;
        planes.(bu + word) <- m
      end;
      if m <> pv then begin
        dv := true;
        planes.(bv + word) <- m
      end
    done;
    (* Log order at one step: receiver [u] (the smaller endpoint)
       before receiver [v] — the reference implementation matches. *)
    if !du then begin
      incr transfer_count;
      if record_all then Run_log.add log ~time:t ~sender:v ~receiver:u;
      notify_transfer obs ~t ~sender:v ~receiver:u
    end;
    if !dv then begin
      incr transfer_count;
      if record_all then Run_log.add log ~time:t ~sender:u ~receiver:v;
      notify_transfer obs ~t ~sender:u ~receiver:v
    end;
    if !du || !dv then begin
      (* The endpoints now share one merged set: one fullness check
         covers both. *)
      let fullnow = ref true in
      for word = 0 to w - 1 do
        if planes.(bu + word) <> full.(word) then fullnow := false
      done;
      if !fullnow then begin
        if not complete.(u) then begin
          complete.(u) <- true;
          incr ncomplete;
          last_time := t
        end;
        if not complete.(v) then begin
          complete.(v) <- true;
          incr ncomplete;
          last_time := t
        end
      end
    end;
    if obs.has_step_obs then notify_step obs ~t i;
    incr clock
  done;
  let final_clock = !clock in
  let solved = !ncomplete = n in
  let coverage =
    Array.init n (fun v ->
        let c = ref 0 in
        for word = 0 to w - 1 do
          c := !c + popcount planes.((v * w) + word)
        done;
        !c)
  in
  finish obs
    {
      stop = stop_for schedule ~final_clock ~solved;
      duration = (if solved then Some !last_time else None);
      steps = final_clock;
      log;
      transfer_count = !transfer_count;
      coverage;
      complete_nodes = !ncomplete;
    }

let run_reference ?max_steps ?(record = `All) ?(observers = []) ~problem
    schedule =
  let k = tokens_of ~what:"Gossip.run_reference" problem in
  let n = Schedule.n schedule in
  let limit = limit_for ?max_steps schedule ~what:"Gossip.run_reference" in
  let obs = obs_arrays observers in
  let decode = decoder schedule in
  (* know.(v * k + j): node [v] knows token [j]. *)
  let know = Array.make (n * k) false in
  let counts = Array.make n 0 in
  for j = 0 to k - 1 do
    let home = Problem.token_home problem ~n ~token:j in
    if not know.((home * k) + j) then begin
      know.((home * k) + j) <- true;
      counts.(home) <- counts.(home) + 1
    end
  done;
  let complete = Array.make n false in
  let ncomplete = ref 0 in
  for v = 0 to n - 1 do
    if Problem.covered problem ~known:counts.(v) then begin
      complete.(v) <- true;
      incr ncomplete
    end
  done;
  let record_all = record = `All in
  let log = Run_log.create ~capacity:n () in
  let clock = ref 0 in
  let last_time = ref (-1) in
  let transfer_count = ref 0 in
  while !ncomplete < n && !clock < limit do
    let t = !clock in
    let i = decode t in
    let u = Interaction.u i and v = Interaction.v i in
    let gained_u = ref 0 and gained_v = ref 0 in
    for j = 0 to k - 1 do
      let ku = know.((u * k) + j) and kv = know.((v * k) + j) in
      if kv && not ku then begin
        know.((u * k) + j) <- true;
        incr gained_u
      end;
      if ku && not kv then begin
        know.((v * k) + j) <- true;
        incr gained_v
      end
    done;
    counts.(u) <- counts.(u) + !gained_u;
    counts.(v) <- counts.(v) + !gained_v;
    if !gained_u > 0 then begin
      incr transfer_count;
      if record_all then Run_log.add log ~time:t ~sender:v ~receiver:u;
      notify_transfer obs ~t ~sender:v ~receiver:u
    end;
    if !gained_v > 0 then begin
      incr transfer_count;
      if record_all then Run_log.add log ~time:t ~sender:u ~receiver:v;
      notify_transfer obs ~t ~sender:u ~receiver:v
    end;
    if !gained_u > 0 || !gained_v > 0 then begin
      if Problem.covered problem ~known:counts.(u) && not complete.(u) then begin
        complete.(u) <- true;
        incr ncomplete;
        last_time := t
      end;
      if Problem.covered problem ~known:counts.(v) && not complete.(v) then begin
        complete.(v) <- true;
        incr ncomplete;
        last_time := t
      end
    end;
    if obs.has_step_obs then notify_step obs ~t i;
    incr clock
  done;
  let final_clock = !clock in
  let solved = !ncomplete = n in
  finish obs
    {
      stop = stop_for schedule ~final_clock ~solved;
      duration = (if solved then Some !last_time else None);
      steps = final_clock;
      log;
      transfer_count = !transfer_count;
      coverage = Array.copy counts;
      complete_nodes = !ncomplete;
    }

let pp_result ppf r =
  let reason =
    match r.stop with
    | Engine.All_aggregated -> "all covered"
    | Engine.Schedule_exhausted -> "schedule exhausted"
    | Engine.Step_limit -> "step limit"
  in
  Format.fprintf ppf "@[<v>stop: %s@,steps: %d@,transfers: %d@," reason r.steps
    r.transfer_count;
  (match r.duration with
  | Some d -> Format.fprintf ppf "duration: %d@," d
  | None -> Format.fprintf ppf "duration: -@,");
  Format.fprintf ppf "covered nodes: %d of %d@]" r.complete_nodes
    (Array.length r.coverage)
