(* Native ints carry 63 usable bits (the 64th is the tag); Int64 planes
   would box on every load without flambda, so one word packs 63 bits
   and the sign bit is just bit 62 of the plane. *)
let word_bits = 63

let words bits = (bits + word_bits - 1) / word_bits

let word_mask ~bits word =
  let k = bits - (word * word_bits) in
  if k >= word_bits then -1 else (1 lsl k) - 1

(* Plane word [v * w + word]: bit [b] set iff node [v] holds bit
   [word * word_bits + b]. [full] is the per-word value of a node that
   holds every bit. *)
type t = { w : int; full : int array; planes : int array }

let tokens problem ~n =
  let k = Problem.tokens problem in
  let w = words k in
  let planes = Array.make (n * w) 0 in
  for j = 0 to k - 1 do
    let at = (Problem.token_home problem ~n ~token:j * w) + (j / word_bits) in
    planes.(at) <- planes.(at) lor (1 lsl (j mod word_bits))
  done;
  { w; full = Array.init w (fun word -> word_mask ~bits:k word); planes }

let is_full p v =
  let base = v * p.w and full = ref true in
  for word = 0 to p.w - 1 do
    if p.planes.(base + word) <> p.full.(word) then full := false
  done;
  !full

let count p v =
  let c = ref 0 in
  for word = 0 to p.w - 1 do
    let x = ref p.planes.((v * p.w) + word) in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done
  done;
  !c

let absorb p ~dst ~src =
  let bd = dst * p.w and bs = src * p.w in
  let gained = ref false in
  for word = 0 to p.w - 1 do
    let d = p.planes.(bd + word) in
    let m = d lor p.planes.(bs + word) in
    if m <> d then begin
      gained := true;
      p.planes.(bd + word) <- m
    end
  done;
  !gained

let exchange p u v =
  let bu = u * p.w and bv = v * p.w in
  let gained = ref 0 in
  for word = 0 to p.w - 1 do
    let pu = p.planes.(bu + word) and pv = p.planes.(bv + word) in
    let m = pu lor pv in
    if m <> pu then begin
      gained := !gained lor 1;
      p.planes.(bu + word) <- m
    end;
    if m <> pv then begin
      gained := !gained lor 2;
      p.planes.(bv + word) <- m
    end
  done;
  !gained
