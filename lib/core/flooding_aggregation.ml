module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction

type result = {
  completed : bool;
  duration : int option;
  steps : int;
  exchanges : int;
}

(* Flooding is n-token gossip, token [v] starting at node [v], that
   stops as soon as the sink knows every token. *)
let run ?max_steps sched =
  let n = Schedule.n sched in
  let sink = Schedule.sink sched in
  let limit = Engine.limit ?max_steps ~what:"Flooding_aggregation.run" sched in
  let planes = Bit_planes.tokens (Problem.dissemination ~k:n) ~n in
  let cur = Schedule.cursor sched in
  let exchanges = ref 0 in
  let steps = ref 0 in
  let duration = ref None in
  while !duration = None && !steps < limit do
    let t = !steps in
    if t >= cur.hi then Schedule.advance cur t;
    let i = Array.unsafe_get cur.blk (t - cur.base) in
    let a = Interaction.u i and b = Interaction.v i in
    if Bit_planes.exchange planes a b <> 0 then begin
      incr exchanges;
      if (a = sink || b = sink) && Bit_planes.is_full planes sink then
        duration := Some t
    end;
    incr steps
  done;
  {
    completed = !duration <> None;
    duration = !duration;
    steps = !steps;
    exchanges = !exchanges;
  }

let sink_completion ~n ~sink s =
  let sched = Schedule.of_sequence ~n ~sink s in
  (run sched).duration
