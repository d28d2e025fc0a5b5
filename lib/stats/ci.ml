type interval = { center : float; lower : float; upper : float }

(* Two-sided standard-normal quantile for the usual confidence levels,
   with linear interpolation elsewhere; adequate for reporting. *)
let z_of_confidence c =
  let table =
    [ (0.80, 1.2816); (0.90, 1.6449); (0.95, 1.9600); (0.98, 2.3263); (0.99, 2.5758) ]
  in
  let rec lookup = function
    | [] -> 1.96
    | [ (_, z) ] -> z
    | (c1, z1) :: ((c2, z2) :: _ as rest) ->
        if c <= c1 then z1
        else if c < c2 then z1 +. ((z2 -. z1) *. (c -. c1) /. (c2 -. c1))
        else lookup rest
  in
  lookup table

let normal_mean ?(confidence = 0.95) xs =
  let m = Descriptive.mean xs in
  let se = Descriptive.std_error xs in
  let z = z_of_confidence confidence in
  { center = m; lower = m -. (z *. se); upper = m +. (z *. se) }

let bootstrap_mean ?(confidence = 0.95) ?(resamples = 1000) rng xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ci.bootstrap_mean: empty sample";
  let means =
    Array.init resamples (fun _ ->
        let acc = ref 0.0 in
        for _ = 1 to n do
          acc := !acc +. xs.(Doda_prng.Prng.int rng n)
        done;
        !acc /. float_of_int n)
  in
  let alpha = 1.0 -. confidence in
  {
    center = Descriptive.mean xs;
    lower = Descriptive.quantile means (alpha /. 2.0);
    upper = Descriptive.quantile means (1.0 -. (alpha /. 2.0));
  }

let contains iv x = iv.lower <= x && x <= iv.upper
