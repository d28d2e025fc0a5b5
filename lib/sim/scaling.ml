module Descriptive = Doda_stats.Descriptive
module Regression = Doda_stats.Regression

type point = { n : int; mean : float; std_error : float; success : float }

let point_of (m : Experiment.measurement) =
  (* A point where every replication hit its budget has no samples;
     report it as nan/0 rather than raising so capped sweeps
     (--max-steps) still print their table. *)
  let empty = Array.length m.samples = 0 in
  {
    n = m.n;
    mean = (if empty then Float.nan else Experiment.mean m);
    std_error = (if empty then Float.nan else Descriptive.std_error m.samples);
    success = Experiment.success_rate m;
  }

let points_of ms = List.map point_of ms

let exponent points =
  let data =
    Array.of_list (List.map (fun p -> (float_of_int p.n, p.mean)) points)
  in
  Regression.log_log data

let ratio_stability ~predicted points =
  let data =
    Array.of_list (List.map (fun p -> (predicted p.n, p.mean)) points)
  in
  Regression.ratio_stability data
