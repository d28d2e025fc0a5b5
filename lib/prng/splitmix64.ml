type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }
let copy g = { state = g.state }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

(* A distinct finalizer for split seeds, so that a child seeded with
   [split g] does not replay the parent's stream. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  Int64.(logxor z (shift_right_logical z 33))

let split g = mix_gamma (next g)
