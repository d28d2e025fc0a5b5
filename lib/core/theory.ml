let harmonic k =
  let acc = ref 0.0 in
  for i = 1 to k do
    acc := !acc +. (1.0 /. float_of_int i)
  done;
  !acc

let expected_broadcast n = float_of_int (n - 1) *. harmonic (n - 1)

let expected_waiting n =
  float_of_int (n * (n - 1)) /. 2.0 *. harmonic (n - 1)

let expected_gathering n =
  (* n(n-1) * sum_{i=1}^{n-1} 1/(i(i+1)) telescopes to n(n-1)(1 - 1/n). *)
  let nf = float_of_int n in
  nf *. (nf -. 1.0) *. (1.0 -. (1.0 /. nf))

let expected_last_meet n = float_of_int (n * (n - 1)) /. 2.0

let expected_sink_meetings ~n ~k =
  if k < 0 || k > n - 1 then invalid_arg "Theory.expected_sink_meetings: bad k";
  float_of_int (n * (n - 1)) /. 2.0 *. (harmonic (n - 1) -. harmonic (n - 1 - k))

let tau_for_f ~n ~f =
  let nf = float_of_int n in
  let bound = Float.max (nf *. f) (nf *. nf *. log nf /. f) in
  Stdlib.max 1 (int_of_float (Float.ceil bound))

let pair_count n = float_of_int (n * (n - 1))

let waiting_phases n =
  Array.init (n - 1) (fun i -> 2.0 *. float_of_int (n - i - 1) /. pair_count n)

let gathering_phases n =
  Array.init (n - 1) (fun i ->
      float_of_int ((n - i) * (n - i - 1)) /. pair_count n)

let broadcast_phases n =
  Array.init (n - 1) (fun i ->
      2.0 *. float_of_int ((i + 1) * (n - i - 1)) /. pair_count n)

let recommended_tau n =
  let nf = float_of_int n in
  let tau = (nf ** 1.5) *. sqrt (log nf) in
  Stdlib.max 1 (int_of_float (Float.ceil tau))
