type fit = {
  slope : float;
  intercept : float;
  r2 : float;
  residual_stddev : float;
}

let linear points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Regression.linear: need at least two points";
  let nf = float_of_int n in
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let mx = sx /. nf and my = sy /. nf in
  let sxx = Array.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.0)) 0.0 points in
  let sxy =
    Array.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 points
  in
  if sxx = 0.0 then invalid_arg "Regression.linear: zero variance in x";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let ss_res =
    Array.fold_left
      (fun a (x, y) -> a +. ((y -. ((slope *. x) +. intercept)) ** 2.0))
      0.0 points
  in
  let ss_tot = Array.fold_left (fun a (_, y) -> a +. ((y -. my) ** 2.0)) 0.0 points in
  let r2 = if ss_tot = 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  let residual_stddev =
    if n > 2 then sqrt (ss_res /. float_of_int (n - 2)) else 0.0
  in
  { slope; intercept; r2; residual_stddev }

let log_log points =
  let logged =
    Array.map
      (fun (x, y) ->
        if x <= 0.0 || y <= 0.0 then
          invalid_arg "Regression.log_log: coordinates must be positive";
        (log x, log y))
      points
  in
  linear logged

let ratio_stability points =
  if Array.length points = 0 then invalid_arg "Regression.ratio_stability: empty";
  let ratios =
    Array.map
      (fun (x, y) ->
        if x = 0.0 then invalid_arg "Regression.ratio_stability: zero x";
        y /. x)
      points
  in
  let m = Descriptive.mean ratios in
  let cv = if m = 0.0 then 0.0 else Descriptive.stddev ratios /. Float.abs m in
  (m, cv)
