module Prng = Doda_prng.Prng
module Interaction = Doda_dynamic.Interaction

let adversary rng ~n ~sink ~q =
  if q < 0.0 || q > 1.0 then invalid_arg "Mixed.adversary: q outside [0, 1]";
  let spiteful = Spiteful.adversary ~n ~sink in
  let next (view : Adversary.view) =
    if Prng.bernoulli rng q then spiteful.Adversary.next view
    else Some (Prng.pair_with rng n Interaction.make)
  in
  { Adversary.name = Printf.sprintf "mixed(q=%.2f)" q; next }
