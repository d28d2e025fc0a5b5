type t = Finite of int | At_least of int

(* Number of leading entries of the chain T(1) < T(2) < ... that
   satisfy [keep], computed one entry at a time: the walk stops at the
   first entry that fails [keep] or at the end of the chain. *)
let walk ~n ~sink s keep =
  let rec go count start =
    match Convergecast.opt ~n ~sink s start with
    | Some ending when keep ending -> go (count + 1) (ending + 1)
    | Some _ | None -> count
  in
  go 0 0

let cost ~n ~sink s ~duration =
  match duration with
  | Some d ->
      (* The first T(i) >= d gives the cost. If d exceeds all finite T
         values, the next convergecast ends beyond the sequence (or
         never), hence after d: the cost is one past the chain
         length. *)
      Finite (walk ~n ~sink s (fun ending -> ending < d) + 1)
  | None -> At_least (walk ~n ~sink s (fun _ -> true) + 1)

let convergecasts_within ~n ~sink s ~upto =
  walk ~n ~sink s (fun ending -> ending <= upto)

let of_result ~n ~sink s (r : Engine.result) = cost ~n ~sink s ~duration:r.duration

let pp ppf = function
  | Finite i -> Format.fprintf ppf "%d" i
  | At_least i -> Format.fprintf ppf ">=%d" i

let equal a b =
  match (a, b) with
  | Finite x, Finite y | At_least x, At_least y -> x = y
  | Finite _, At_least _ | At_least _, Finite _ -> false

let to_float = function Finite i | At_least i -> float_of_int i
