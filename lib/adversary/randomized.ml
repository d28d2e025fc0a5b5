module Generators = Doda_dynamic.Generators
module Schedule = Doda_dynamic.Schedule

let uniform rng ~n =
  Adversary.of_generator ~name:"randomized-uniform" (Generators.uniform rng ~n)

let uniform_schedule rng ~n ~sink =
  Schedule.of_fun ~n ~sink (Generators.uniform rng ~n)

let weighted rng ~weights =
  Adversary.of_generator ~name:"randomized-weighted"
    (Generators.weighted_nodes rng ~weights)

let sink_weights ~n ~sink ~sink_weight =
  Array.init n (fun u -> if u = sink then sink_weight else 1.0)

let sink_biased_schedule rng ~n ~sink ~sink_weight =
  Schedule.of_fun ~n ~sink
    (Generators.weighted_nodes rng ~weights:(sink_weights ~n ~sink ~sink_weight))
