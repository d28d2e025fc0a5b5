module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction
module Temporal = Doda_dynamic.Temporal

type plan = { fire_time : int array; fire_to : int array; completion : int }

let feasible ~n ~sink s ~lo ~hi =
  if n = 1 then true
  else if lo > hi || lo < 0 || hi >= Sequence.length s then false
  else Temporal.reverse_flood_all_informed ~n ~src:sink s ~lo ~hi

let opt ~n ~sink s t =
  let len = Sequence.length s in
  if t < 0 then invalid_arg "Convergecast.opt: negative start time";
  if n = 1 then Some t
  else if t >= len || not (feasible ~n ~sink s ~lo:t ~hi:(len - 1)) then None
  else begin
    (* Feasibility is monotone in [hi]: binary search the smallest one. *)
    let lo_bound = ref t and hi_bound = ref (len - 1) in
    while !lo_bound < !hi_bound do
      let mid = (!lo_bound + !hi_bound) / 2 in
      if feasible ~n ~sink s ~lo:t ~hi:mid then hi_bound := mid
      else lo_bound := mid + 1
    done;
    Some !lo_bound
  end

(* Reverse flood over [start .. upper], recording for each node the
   index of the interaction that informed it; by the duality that index
   is the node's transmission time in the convergecast. *)
let plan_within ~n ~sink s ~start ~upper =
  let fire_time = Array.make n (-1) in
  let fire_to = Array.make n (-1) in
  let informed = Array.make n false in
  informed.(sink) <- true;
  let count = ref 1 in
  let completion = ref (-1) in
  let t = ref upper in
  while !count < n && !t >= start do
    let i = Sequence.get s !t in
    let a = Interaction.u i and b = Interaction.v i in
    let inform target source =
      informed.(target) <- true;
      fire_time.(target) <- !t;
      fire_to.(target) <- source;
      incr count;
      if !completion < 0 then completion := !t
    in
    if informed.(a) && not informed.(b) then inform b a
    else if informed.(b) && not informed.(a) then inform a b;
    decr t
  done;
  if !count = n then Some { fire_time; fire_to; completion = Stdlib.max !completion start }
  else None

let plan ~n ~sink s ~start =
  match opt ~n ~sink s start with
  | None -> None
  | Some ending -> plan_within ~n ~sink s ~start ~upper:ending

let t_chain ~n ~sink s =
  let rec chain start acc =
    match opt ~n ~sink s start with
    | None -> List.rev acc
    | Some ending -> chain (ending + 1) (ending :: acc)
  in
  chain 0 []

(* Reverse flood over [lo .. hi] with a generation-stamped scratch:
   [stamp.(v) = gen] means informed, so probes reuse one int array with
   no clearing between them. *)
let flood_ok ~n ~sink ~stamp ~gen s ~lo ~hi =
  stamp.(sink) <- gen;
  let count = ref 1 in
  let t = ref hi in
  while !count < n && !t >= lo do
    let i = Sequence.get s !t in
    let a = Interaction.u i and b = Interaction.v i in
    let ia = stamp.(a) = gen and ib = stamp.(b) = gen in
    if ia <> ib then begin
      stamp.(if ia then b else a) <- gen;
      incr count
    end;
    decr t
  done;
  !count = n

let optimal_duration_lazy sched ~start ~horizon =
  let n = Schedule.n sched and sink = Schedule.sink sched in
  if start < 0 then invalid_arg "Convergecast.opt: negative start time";
  let cap =
    match Schedule.length sched with
    | Some len -> Stdlib.min len horizon
    | None -> horizon
  in
  match Schedule.backing sched with
  | Some s ->
      (* Zero-copy path: the schedule is finite, so the binary search
         for the minimal ending runs directly on the backing sequence
         with index bounds — no [Schedule.prefix] copies per doubling
         attempt, and the feasibility probes share one
         generation-stamped scratch instead of allocating an informed
         array each. *)
      let upper = Stdlib.min cap (Sequence.length s) - 1 in
      if start > upper then None
      else begin
        let stamp = Array.make n 0 in
        let gen = ref 0 in
        let probe hi =
          incr gen;
          flood_ok ~n ~sink ~stamp ~gen:!gen s ~lo:start ~hi
        in
        if not (probe upper) then None
        else begin
          let lo_b = ref start and hi_b = ref upper in
          while !lo_b < !hi_b do
            let mid = (!lo_b + !hi_b) / 2 in
            if probe mid then hi_b := mid else lo_b := mid + 1
          done;
          match plan_within ~n ~sink s ~start ~upper:!lo_b with
          | Some p -> Some (p, !lo_b + 1)
          | None -> None
        end
      end
  | None ->
      (* Generator-backed schedule: materialise geometrically growing
         prefixes until a convergecast fits. *)
      let rec attempt size =
        if start >= size && size >= cap then None
        else begin
          let size = Stdlib.min size cap in
          let prefix = Schedule.prefix sched size in
          match plan ~n ~sink prefix ~start with
          | Some p -> Some (p, size)
          | None -> if size >= cap then None else attempt (size * 2)
        end
      in
      attempt (Stdlib.max 16 (Stdlib.max (4 * n) (2 * (start + 1))))
