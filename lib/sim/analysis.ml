module Engine = Doda_core.Engine
module Run_log = Doda_core.Run_log
module Bit_planes = Doda_core.Bit_planes

let aggregation_parent ~n (r : Engine.result) =
  Array.copy (Run_log.parents r.log ~n)

let datum_route ~n ~sink (r : Engine.result) v =
  let parent = Run_log.parents r.log ~n in
  let fire = Run_log.fire_times r.log ~n in
  let rec walk carrier acc =
    if carrier = sink || parent.(carrier) < 0 then List.rev acc
    else
      let next = parent.(carrier) in
      walk next ((fire.(carrier), next) :: acc)
  in
  if v = sink then [] else walk v []

(* Delivery time of [v]'s datum: once [v] transmits to its parent [p],
   the datum travels inside [p]'s aggregate, so it reaches the sink
   exactly when [p]'s does. Memoising that recurrence makes the whole
   array one O(n) pass over the cached parent/fire arrays instead of
   one chain walk per node. *)
let delivery_times ~n ~sink r =
  let parent = Run_log.parents ~n r.Engine.log in
  let fire = Run_log.fire_times ~n r.Engine.log in
  let memo = Array.make n (-2) (* -2 unknown, -1 undelivered, >= 0 time *) in
  let rec solve v =
    if memo.(v) <> -2 then memo.(v)
    else begin
      let d =
        if v = sink then -1
        else
          let p = parent.(v) in
          if p < 0 then -1 else if p = sink then fire.(v) else solve p
      in
      memo.(v) <- d;
      d
    end
  in
  Array.init n (fun v ->
      if v = sink then None
      else match solve v with -1 -> None | t -> Some t)

let hop_counts ~n ~sink r =
  let parent = Run_log.parents ~n r.Engine.log in
  let memo = Array.make n (-1) in
  let rec solve v =
    if memo.(v) >= 0 then memo.(v)
    else begin
      let h =
        if v = sink then 0
        else
          let p = parent.(v) in
          if p < 0 then 0 else 1 + solve p
      in
      memo.(v) <- h;
      h
    end
  in
  Array.init n solve

let mean_delivery_time ~n ~sink r =
  let times =
    Array.to_list (delivery_times ~n ~sink r) |> List.filter_map Fun.id
  in
  match times with
  | [] -> None
  | _ ->
      let total = List.fold_left ( + ) 0 times in
      Some (float_of_int total /. float_of_int (List.length times))

let max_hops ~n ~sink r =
  Array.fold_left Stdlib.max 0 (hop_counts ~n ~sink r)

(* ------------------------------------------------------------------ *)
(* Dissemination (gossip) counterparts. A {!Doda_core.Gossip} log
   records every informative transfer and knowledge changes only on
   those, so replaying the log over bit-planes reconstructs each
   node's knowledge history exactly. *)

let coverage_times ~n ~problem (r : Doda_core.Gossip.result) =
  let planes = Bit_planes.tokens problem ~n in
  let times =
    Array.init n (fun v ->
        (* Complete before any interaction: time -1, matching
           [Temporal.earliest_arrival]'s convention for the source. *)
        if Bit_planes.is_full planes v then Some (-1) else None)
  in
  Run_log.iter
    (fun ~time ~sender ~receiver ->
      if
        sender >= 0 && sender < n && receiver >= 0 && receiver < n
        && Bit_planes.absorb planes ~dst:receiver ~src:sender
        && times.(receiver) = None
        && Bit_planes.is_full planes receiver
      then times.(receiver) <- Some time)
    r.Doda_core.Gossip.log;
  times

let mean_coverage_time ~n ~problem r =
  let times = coverage_times ~n ~problem r in
  let total = ref 0 and count = ref 0 in
  Array.iter
    (function
      | Some t when t >= 0 ->
          total := !total + t;
          incr count
      | Some _ | None -> ())
    times;
  if !count = 0 then None
  else Some (float_of_int !total /. float_of_int !count)
