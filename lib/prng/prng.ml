type t = {
  gen : Xoshiro256ss.t;
  seeder : Splitmix64.t;
  (* Two-slot memo of the rejection limits for the last two
     non-power-of-two bounds, most recent first. Bulk consumers draw
     millions of times at one bound, and [pair] alternates two (n and
     n - 1); the limit is a pure function of the bound, so caching it
     removes a 64-bit division per draw without touching the draw
     stream. *)
  mutable memo_bound : int;
  mutable memo_limit : int;
  mutable memo_bound' : int;
  mutable memo_limit' : int;
}

let create64 seed =
  {
    gen = Xoshiro256ss.create seed;
    seeder = Splitmix64.create (Int64.lognot seed);
    memo_bound = 0;
    memo_limit = 0;
    memo_bound' = 0;
    memo_limit' = 0;
  }

let create seed = create64 (Int64.of_int seed)

let split g = create64 (Splitmix64.split g.seeder)

let split_n g k =
  if k < 0 then invalid_arg "Prng.split_n: negative count";
  Array.init k (fun _ -> split g)

let copy g =
  {
    gen = Xoshiro256ss.copy g.gen;
    seeder = Splitmix64.copy g.seeder;
    memo_bound = g.memo_bound;
    memo_limit = g.memo_limit;
    memo_bound' = g.memo_bound';
    memo_limit' = g.memo_limit';
  }

let bits64 g = Xoshiro256ss.next g.gen

(* Top 62 bits as a nonnegative OCaml int, via the unboxed fused
   path. *)
let bits g = Xoshiro256ss.next_bits g.gen ~drop:2

(* The largest multiple of [bound] that fits in 62 bits: a draw below
   it is accepted, so the result has no modulo bias. *)
let limit g bound =
  if g.memo_bound = bound then g.memo_limit
  else if g.memo_bound' = bound then g.memo_limit'
  else begin
    let max_int62 = (1 lsl 62) - 1 in
    let l = max_int62 - (max_int62 mod bound) in
    g.memo_bound' <- g.memo_bound;
    g.memo_limit' <- g.memo_limit;
    g.memo_bound <- bound;
    g.memo_limit <- l;
    l
  end

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits g land (bound - 1)
  else begin
    (* Rejection sampling. A loop over a local ref, not a local
       recursive function: the ref stays in a register, where the
       function would be a closure allocated on every draw. *)
    let limit = limit g bound in
    let r = ref (bits g) in
    while !r >= limit do
      r := bits g
    done;
    !r mod bound
  end

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* 53 random bits: [bits53 g /. 0x1p53] is uniform in [0, 1). A call
   that returns a float boxes it, so the draws below read these bits
   and do their float arithmetic locally, where it stays unboxed:
   [bernoulli], [geometric] and [Alias.sample] allocate nothing, and
   [float] and [exponential], inlined, allocate nothing where their
   result is stored or computed with. *)
let[@inline] bits53 g = Xoshiro256ss.next_bits g.gen ~drop:11

let[@inline] float g bound = float_of_int (bits53 g) /. 0x1p53 *. bound

let bool g = Int64.(shift_right_logical (bits64 g) 63) = 1L

(* [float g 1.0 < p], scaled by 2^53 on both sides: both scalings are
   exact, so this is the same comparison. *)
let bernoulli g p = float_of_int (bits53 g) < p *. 0x1p53

let[@inline] exponential g lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. (float_of_int (bits53 g) /. 0x1p53) in
  -.log u /. lambda

let geometric g p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. (float_of_int (bits53 g) /. 0x1p53) in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let pair_with g n k =
  if n < 2 then invalid_arg "Prng.pair: need at least two elements";
  let a = int g n in
  let b = int g (n - 1) in
  let b = if b >= a then b + 1 else b in
  if a < b then k a b else k b a

let pair g n = pair_with g n (fun a b -> (a, b))

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

(* Loops over local float refs, which stay unboxed: a draw allocates
   nothing. The sum runs left to right from 0, and the scan stops at
   the first partial sum above the target, the last index being
   reached by fallthrough. *)
let weighted_index g w =
  let n = Array.length w in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. w.(i)
  done;
  if !total <= 0.0 then invalid_arg "Prng.weighted_index: weights sum to zero";
  let target = float g !total in
  let i = ref 0 and acc = ref 0.0 and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. w.(!i);
    if target < !acc then found := true else incr i
  done;
  !i

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher-Yates over an index array. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in g i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

module Alias = struct
  type dist = { prob : float array; alias : int array }

  let create w =
    let n = Array.length w in
    if n = 0 then invalid_arg "Prng.Alias.create: empty weights";
    let total = Array.fold_left ( +. ) 0.0 w in
    if total <= 0.0 || Array.exists (fun x -> x < 0.0) w then
      invalid_arg "Prng.Alias.create: weights must be nonnegative, not all zero";
    let scaled = Array.map (fun x -> x *. float_of_int n /. total) w in
    let prob = Array.make n 0.0 and alias = Array.make n 0 in
    let small = Queue.create () and large = Queue.create () in
    Array.iteri
      (fun i p -> Queue.push i (if p < 1.0 then small else large))
      scaled;
    while not (Queue.is_empty small) && not (Queue.is_empty large) do
      let s = Queue.pop small and l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      Queue.push l (if scaled.(l) < 1.0 then small else large)
    done;
    let flush q = Queue.iter (fun i -> prob.(i) <- 1.0) q in
    flush small;
    flush large;
    { prob; alias }

  let sample g d =
    let n = Array.length d.prob in
    let i = int g n in
    if float_of_int (bits53 g) < d.prob.(i) *. 0x1p53 then i else d.alias.(i)

  let size d = Array.length d.prob
end
