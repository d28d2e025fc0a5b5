module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction

type result = {
  stop : Engine.stop_reason;
  duration : int option;
  steps : int;
  log : Run_log.t;
  transfer_count : int;
  coverage : int array;
  complete_nodes : int;
}

type observer = result Engine.watch

let observer ?on_step ?on_transfer ?on_finish () =
  Engine.watch ?on_step ?on_transmit:on_transfer ?on_finish ()

let run ?max_steps ?(record = `All) ?(observers = []) ~problem schedule =
  let n = Schedule.n schedule in
  let limit = Engine.limit ?max_steps ~what:"Gossip.run" schedule in
  let obs = Engine.watchers observers in
  let planes = Bit_planes.tokens problem ~n in
  let complete = Array.init n (Bit_planes.is_full planes) in
  let ncomplete =
    ref (Array.fold_left (fun c full -> if full then c + 1 else c) 0 complete)
  in
  let record_all = record = `All in
  let log = Run_log.create ~capacity:n () in
  let cur = Schedule.cursor schedule in
  let clock = ref 0 in
  let last_time = ref (-1) in
  let transfer_count = ref 0 in
  while !ncomplete < n && !clock < limit do
    let t = !clock in
    if t >= cur.hi then Schedule.advance cur t;
    let i = Array.unsafe_get cur.blk (t - cur.base) in
    let u = Interaction.u i and v = Interaction.v i in
    let gained = Bit_planes.exchange planes u v in
    if gained <> 0 then begin
      (* Log order at one step: receiver [u] (the smaller endpoint)
         before receiver [v] — the reference implementation matches. *)
      if gained land 1 <> 0 then begin
        incr transfer_count;
        if record_all then Run_log.add log ~time:t ~sender:v ~receiver:u;
        Engine.notify_transmit obs ~t ~sender:v ~receiver:u
      end;
      if gained land 2 <> 0 then begin
        incr transfer_count;
        if record_all then Run_log.add log ~time:t ~sender:u ~receiver:v;
        Engine.notify_transmit obs ~t ~sender:u ~receiver:v
      end;
      (* The endpoints now share one merged set: one fullness check
         covers both. *)
      if Bit_planes.is_full planes u then begin
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
    if obs.has_step_obs then Engine.notify_step obs ~t i;
    incr clock
  done;
  let solved = !ncomplete = n in
  Engine.notify_finish obs
    {
      stop = Engine.stop_reason schedule ~clock:!clock ~solved;
      duration = (if solved then Some !last_time else None);
      steps = !clock;
      log;
      transfer_count = !transfer_count;
      coverage = Array.init n (Bit_planes.count planes);
      complete_nodes = !ncomplete;
    }

let run_reference ?max_steps ?(record = `All) ?(observers = []) ~problem
    schedule =
  let k = Problem.tokens problem in
  let n = Schedule.n schedule in
  let limit = Engine.limit ?max_steps ~what:"Gossip.run_reference" schedule in
  let obs = Engine.watchers observers in
  let cur = Schedule.cursor schedule in
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
    if t >= cur.hi then Schedule.advance cur t;
    let i = Array.unsafe_get cur.blk (t - cur.base) in
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
      Engine.notify_transmit obs ~t ~sender:v ~receiver:u
    end;
    if !gained_v > 0 then begin
      incr transfer_count;
      if record_all then Run_log.add log ~time:t ~sender:u ~receiver:v;
      Engine.notify_transmit obs ~t ~sender:u ~receiver:v
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
    if obs.has_step_obs then Engine.notify_step obs ~t i;
    incr clock
  done;
  let solved = !ncomplete = n in
  Engine.notify_finish obs
    {
      stop = Engine.stop_reason schedule ~clock:!clock ~solved;
      duration = (if solved then Some !last_time else None);
      steps = !clock;
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
