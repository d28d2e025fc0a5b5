let check xs name =
  if Array.length xs = 0 then invalid_arg ("Descriptive." ^ name ^ ": empty sample")

let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  check xs "mean";
  total xs /. float_of_int (Array.length xs)

let variance xs =
  check xs "variance";
  let n = Array.length xs in
  if n = 1 then 0.0
  else
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let std_error xs = stddev xs /. sqrt (float_of_int (Array.length xs))

let min xs =
  check xs "min";
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check xs "max";
  Array.fold_left Stdlib.max xs.(0) xs

let quantile xs q =
  check xs "quantile";
  if q < 0.0 || q > 1.0 then invalid_arg "Descriptive.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = quantile xs 0.5

type summary = {
  n : int;
  mean : float;
  stddev : float;
  std_error : float;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  max : float;
}

let summarize xs =
  check xs "summarize";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let q p =
    let n = Array.length sorted in
    if n = 1 then sorted.(0)
    else
      let pos = p *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = pos -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    std_error = std_error xs;
    min = sorted.(0);
    q25 = q 0.25;
    median = q 0.5;
    q75 = q 0.75;
    max = sorted.(Array.length sorted - 1);
  }
