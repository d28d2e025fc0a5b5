module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Underlying = Doda_dynamic.Underlying

type requirement = Meet_time | Underlying_graph | Own_future | Full_schedule

let requirement_name = function
  | Meet_time -> "meetTime"
  | Underlying_graph -> "underlying graph"
  | Own_future -> "own future"
  | Full_schedule -> "full schedule"

type t = {
  underlying : Doda_graph.Static_graph.t option;
  meet_time : (node:int -> time:int -> limit:int -> int option) option;
  future_of : (int -> (int * Doda_dynamic.Interaction.t) list) option;
  full : Doda_dynamic.Schedule.t option;
}

let empty = { underlying = None; meet_time = None; future_of = None; full = None }

let finite_sequence sched what =
  match Schedule.length sched with
  | None ->
      invalid_arg
        (Printf.sprintf "Knowledge.for_schedule: %s requires a finite schedule" what)
  | Some len -> (
      (* The requirement spans the whole schedule, and a finite
         schedule hands out its backing sequence without the O(len)
         copy [Schedule.prefix] would make. *)
      match Schedule.backing sched with
      | Some seq -> seq
      | None -> Schedule.prefix sched len)

let for_schedule sched reqs =
  List.fold_left
    (fun k req ->
      match req with
      | Meet_time ->
          let meet ~node ~time ~limit =
            Schedule.next_meet_with_sink sched ~node ~after:time ~limit
          in
          { k with meet_time = Some meet }
      | Underlying_graph ->
          let seq = finite_sequence sched "Underlying_graph" in
          let g = Underlying.of_sequence ~n:(Schedule.n sched) seq in
          { k with underlying = Some g }
      | Own_future ->
          let seq = finite_sequence sched "Own_future" in
          let future node = Sequence.interactions_of seq node in
          { k with future_of = Some future }
      | Full_schedule -> { k with full = Some sched })
    empty reqs

let with_underlying g k = { k with underlying = Some g }

let has k = function
  | Meet_time -> k.meet_time <> None
  | Underlying_graph -> k.underlying <> None
  | Own_future -> k.future_of <> None
  | Full_schedule -> k.full <> None

let satisfies k reqs = List.for_all (has k) reqs
let missing k reqs = List.filter (fun r -> not (has k r)) reqs
