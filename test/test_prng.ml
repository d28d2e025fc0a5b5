(* Statistical and determinism tests for the PRNG substrate. *)

module Prng = Doda_prng.Prng
module Splitmix64 = Doda_prng.Splitmix64
module Xoshiro256ss = Doda_prng.Xoshiro256ss
module Generators = Doda_dynamic.Generators
module Interaction = Doda_dynamic.Interaction

(* The published xoshiro256** [next] and [jump] (Blackman & Vigna,
   xoshiro256starstar.c), transcribed statement for statement over a
   boxed [int64] array: the oracle the library's unboxed state is
   checked against. *)
module Oracle = struct
  let rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

  let next s =
    let result = Int64.mul (rotl (Int64.mul s.(1) 5L) 7) 9L in
    let t = Int64.shift_left s.(1) 17 in
    s.(2) <- Int64.logxor s.(2) s.(0);
    s.(3) <- Int64.logxor s.(3) s.(1);
    s.(1) <- Int64.logxor s.(1) s.(2);
    s.(0) <- Int64.logxor s.(0) s.(3);
    s.(2) <- Int64.logxor s.(2) t;
    s.(3) <- rotl s.(3) 45;
    result

  let jump_words =
    [ 0x180ec6d33cfd0abaL; 0xd5a61266f0c9392cL; 0xa9582618e03fc9aaL;
      0x39abdc4529b1661cL ]

  let jump s =
    let acc = Array.make 4 0L in
    List.iter
      (fun w ->
        for b = 0 to 63 do
          if Int64.logand w (Int64.shift_left 1L b) <> 0L then
            for i = 0 to 3 do
              acc.(i) <- Int64.logxor acc.(i) s.(i)
            done;
          ignore (next s)
        done)
      jump_words;
    Array.blit acc 0 s 0 4
end

let test_splitmix_reference () =
  (* Reference outputs for seed 1234567 from the public-domain C
     implementation. *)
  let g = Splitmix64.create 1234567L in
  let a = Splitmix64.next g in
  let b = Splitmix64.next g in
  Alcotest.(check bool) "values differ" true (a <> b);
  (* Determinism from the same seed. *)
  let g2 = Splitmix64.create 1234567L in
  Alcotest.(check int64) "replay first" a (Splitmix64.next g2);
  Alcotest.(check int64) "replay second" b (Splitmix64.next g2)

let test_splitmix_copy_independent () =
  let g = Splitmix64.create 9L in
  let c = Splitmix64.copy g in
  let a = Splitmix64.next g in
  let b = Splitmix64.next c in
  Alcotest.(check int64) "copy replays" a b

let test_xoshiro_rejects_zero_state () =
  Alcotest.check_raises "zero state"
    (Invalid_argument "Xoshiro256ss.of_state: all-zero state") (fun () ->
      ignore (Xoshiro256ss.of_state (0L, 0L, 0L, 0L)))

(* The oracle's first outputs from state (1, 2, 3, 4), the values the
   reference C code prints. *)
let test_oracle_reference () =
  let s = [| 1L; 2L; 3L; 4L |] in
  let expected =
    List.map Int64.of_string
      [ "11520"; "0"; "1509978240"; "1215971899390074240";
        "1216172134540287360"; "607988272756665600";
        "0u16172922978634559625"; "8476171486693032832";
        "0u10595114339597558777"; "2904607092377533576" ]
  in
  Alcotest.(check (list int64)) "first ten outputs" expected
    (List.map (fun _ -> Oracle.next s) expected)

type op = Next | Bits2 | Bits11 | Copy | Jump

let op_name = function
  | Next -> "next"
  | Bits2 -> "next_bits ~drop:2"
  | Bits11 -> "next_bits ~drop:11"
  | Copy -> "copy"
  | Jump -> "jump"

(* From any nonzero state, 1000 operations of the library's generator
   agree with the oracle step for step. A copy replays the stream and
   drawing from it leaves the original alone; a jump lands where the
   oracle's does. *)
let prop_xoshiro_matches_oracle =
  let state =
    QCheck.Gen.(
      map
        (fun (a, b, c, d) ->
          if a = 0L && b = 0L && c = 0L && d = 0L then (1L, b, c, d)
          else (a, b, c, d))
        (quad ui64 ui64 ui64 ui64))
  in
  let ops =
    QCheck.Gen.(
      list_repeat 1000
        (frequency
           [ (3, return Next); (3, return Bits2); (3, return Bits11);
             (1, return Copy); (1, return Jump) ]))
  in
  let print ((a, b, c, d), ops) =
    Printf.sprintf "(%Lx, %Lx, %Lx, %Lx) %s" a b c d
      (String.concat "; " (List.map op_name ops))
  in
  QCheck.Test.make ~count:100 ~name:"xoshiro: matches the published algorithm"
    (QCheck.make ~print (QCheck.Gen.pair state ops))
    (fun (((a, b, c, d) as words), ops) ->
      let g = Xoshiro256ss.of_state words in
      let s = [| a; b; c; d |] in
      let bits drop = Int64.to_int (Int64.shift_right_logical (Oracle.next s) drop) in
      List.for_all
        (function
          | Next -> Xoshiro256ss.next g = Oracle.next s
          | Bits2 -> Xoshiro256ss.next_bits g ~drop:2 = bits 2
          | Bits11 -> Xoshiro256ss.next_bits g ~drop:11 = bits 11
          | Copy -> Xoshiro256ss.next (Xoshiro256ss.copy g) = Oracle.next (Array.copy s)
          | Jump ->
              Xoshiro256ss.jump g;
              Oracle.jump s;
              Xoshiro256ss.next g = Oracle.next s)
        ops)

let test_xoshiro_jump_diverges () =
  let g = Xoshiro256ss.create 42L in
  let h = Xoshiro256ss.copy g in
  Xoshiro256ss.jump h;
  let same = ref 0 in
  for _ = 1 to 100 do
    if Xoshiro256ss.next g = Xoshiro256ss.next h then incr same
  done;
  Alcotest.(check int) "no collisions after jump" 0 !same

let test_int_bounds () =
  let g = Prng.create 1 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_int_uniformity () =
  let g = Prng.create 2 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let x = Prng.int g 10 in
    counts.(x) <- counts.(x) + 1
  done;
  let expected = float_of_int draws /. 10.0 in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) (Printf.sprintf "bucket %d within 5%%" i) true (dev < 0.05))
    counts

let test_int_rejects_nonpositive () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

(* [Prng.int] as a plain rejection sampler over [next_bits ~drop:2],
   with no memo: a power-of-two bound masks one draw; any other bound
   rejects draws at or above the largest multiple of it below 2^62. *)
let reference_int x bound =
  if bound land (bound - 1) = 0 then Xoshiro256ss.next_bits x ~drop:2 land (bound - 1)
  else
    let max_int62 = (1 lsl 62) - 1 in
    let limit = max_int62 - (max_int62 mod bound) in
    let rec draw () =
      let r = Xoshiro256ss.next_bits x ~drop:2 in
      if r < limit then r mod bound else draw ()
    in
    draw ()

(* Over an interleaved bound sequence (n, n - 1, n, 7, n - 1, 2^k,
   ...), whatever the memo holds, [Prng.int] consumes and accepts the
   same draws as the reference. Bounds just above 2^61 reject about
   half their draws. *)
let prop_int_matches_reference =
  let bound n =
    QCheck.Gen.(
      oneof
        [ return n; return (n - 1); return 7; map (fun k -> 1 lsl k) (0 -- 61);
          map (fun d -> (1 lsl 61) + 1 + d) (0 -- 1000); 1 -- 1_000_000 ])
  in
  let case =
    QCheck.Gen.(
      pair int (2 -- 100_000) >>= fun (seed, n) ->
      map (fun bounds -> (seed, n, bounds)) (list_size (1 -- 300) (bound n)))
  in
  let print (seed, n, bounds) =
    Printf.sprintf "seed %d, n %d, bounds %s" seed n
      (String.concat " " (List.map string_of_int bounds))
  in
  QCheck.Test.make ~count:200 ~name:"Prng.int = memo-free rejection sampler"
    (QCheck.make ~print case)
    (fun (seed, _, bounds) ->
      let g = Prng.create seed in
      let x = Xoshiro256ss.create (Int64.of_int seed) in
      List.for_all (fun b -> Prng.int g b = reference_int x b) bounds)

(* The minor heap does not move over 10^5 calls of [draw]. *)
let minor_words label draw =
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for t = 1 to 100_000 do
    sum := !sum + draw t
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) label 0.0 words;
  ignore (Sys.opaque_identity !sum)

(* A uniform draw allocates nothing: 10^5 draws of [Prng.int] (either
   kind of bound) or of the uniform generator. *)
let test_draws_allocate_nothing () =
  let g = Prng.create 16 in
  minor_words "Prng.int, power-of-two bound" (fun _ -> Prng.int g 64);
  minor_words "Prng.int, other bound" (fun _ -> Prng.int g 63);
  List.iter
    (fun n ->
      let uniform = Generators.uniform g ~n in
      minor_words
        (Printf.sprintf "Generators.uniform n=%d" n)
        (fun t -> Interaction.to_int (uniform t)))
    [ 64; 800 ]

(* [Prng.float g 1.0] written out over the raw generator: 53 bits
   over 2^53, times the bound 1. *)
let reference_unit x =
  float_of_int (Xoshiro256ss.next_bits x ~drop:11) /. 9007199254740992.0 *. 1.0

let int_of_bool b = if b then 1 else 0

(* The draws built on 53 uniform bits allocate nothing, and draw what
   the [float g 1.0]-based formulas drew, on the same stream: 10^5
   Bernoulli draws at each p (subnormal, non-dyadic, 0, 1, out of
   range, NaN), geometric draws, and an alias table whose first entry
   keeps with probability 2/3. *)
let test_unit_draws () =
  let g = Prng.create 17 in
  List.iter
    (fun p ->
      minor_words
        (Printf.sprintf "Prng.bernoulli %h" p)
        (fun _ -> int_of_bool (Prng.bernoulli g p)))
    [ 0.3; 1.0 ];
  minor_words "Prng.geometric" (fun _ -> Prng.geometric g 0.2);
  let dist = Prng.Alias.create [| 1.0; 2.0 |] in
  minor_words "Prng.Alias.sample" (fun _ -> Prng.Alias.sample g dist);
  let same label draw reference =
    let g = Prng.create 18 and x = Xoshiro256ss.create 18L in
    for k = 1 to 100_000 do
      let got = draw g and want = reference x in
      if got <> want then
        Alcotest.failf "%s: draw %d is %d, the reference formula gives %d"
          label k got want
    done
  in
  List.iter
    (fun p ->
      same
        (Printf.sprintf "Prng.bernoulli %h" p)
        (fun g -> int_of_bool (Prng.bernoulli g p))
        (fun x -> int_of_bool (reference_unit x < p)))
    [
      0.0; 0x1p-1074; 1e-17; 0.1; 1.0 /. 3.0; 0.5; 0.7;
      1.0 -. 0x1p-53; 1.0; 1.5; -0.25; Float.nan;
    ];
  List.iter
    (fun p ->
      same
        (Printf.sprintf "Prng.geometric %h" p)
        (fun g -> Prng.geometric g p)
        (fun x ->
          let u = 1.0 -. reference_unit x in
          int_of_float (Float.floor (log u /. log (1.0 -. p)))))
    [ 0.05; 0.5; 0.9 ];
  (* Weights 1 and 2 scale to 2/3 and 4/3: entry 0 keeps with
     probability 2/3, else takes its alias 1; entry 1 always keeps. *)
  let keep0 = 1.0 *. 2.0 /. 3.0 in
  same "Prng.Alias.sample" (fun g -> Prng.Alias.sample g dist) (fun x ->
      let i = reference_int x 2 in
      let u = reference_unit x in
      if i = 1 || u < keep0 then i else 1)

let test_int_in_inclusive () =
  let g = Prng.create 4 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let x = Prng.int_in g 3 5 in
    Alcotest.(check bool) "in [3,5]" true (x >= 3 && x <= 5);
    if x = 3 then seen_lo := true;
    if x = 5 then seen_hi := true
  done;
  Alcotest.(check bool) "hits low" true !seen_lo;
  Alcotest.(check bool) "hits high" true !seen_hi

let test_float_range () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_bool_balanced () =
  let g = Prng.create 6 in
  let trues = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    if Prng.bool g then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int draws in
  Alcotest.(check bool) "balanced" true (ratio > 0.48 && ratio < 0.52)

let test_pair_distinct_ordered () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let a, b = Prng.pair g 9 in
    Alcotest.(check bool) "ordered distinct" true (a < b && b < 9 && a >= 0)
  done

let test_pair_uniform_over_pairs () =
  let g = Prng.create 8 in
  let n = 5 in
  let counts = Hashtbl.create 10 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let p = Prng.pair g n in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  let expected = float_of_int draws /. 10.0 in
  Alcotest.(check int) "all 10 pairs seen" 10 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 5%" true (dev < 0.05))
    counts

let test_split_decorrelated () =
  let master = Prng.create 9 in
  let a = Prng.split master in
  let b = Prng.split master in
  let same = ref 0 in
  for _ = 1 to 1000 do
    if Prng.int a 1000 = Prng.int b 1000 then incr same
  done;
  (* Expect about one collision per thousand. *)
  Alcotest.(check bool) "few collisions" true (!same < 20)

let test_shuffle_is_permutation () =
  let g = Prng.create 10 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let g = Prng.create 11 in
  let s = Prng.sample_without_replacement g 10 30 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length distinct);
  Array.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 30)) s

let test_weighted_index () =
  let g = Prng.create 12 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Prng.weighted_index g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "3:1 ratio" true (ratio > 2.7 && ratio < 3.3)

(* [Prng.weighted_index] as it was written before its loops: a fold
   for the total and a local recursive scan. *)
let reference_weighted_index g w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Prng.weighted_index: weights sum to zero";
  let target = Prng.float g total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

(* A weighted draw allocates nothing and draws what the reference
   draws, 10^5 times on each vector: one with a zero weight, one with
   zeros ahead of the only weight, a single weight, non-dyadic
   weights, and vectors whose last index is reached by fallthrough
   (the scan never adds the last weight). *)
let test_weighted_index_loops () =
  List.iter
    (fun w ->
      let label =
        String.concat "; " (Array.to_list (Array.map string_of_float w))
      in
      let g = Prng.create 19 in
      minor_words
        (Printf.sprintf "Prng.weighted_index [|%s|]" label)
        (fun _ -> Prng.weighted_index g w);
      let g = Prng.create 20 and r = Prng.create 20 in
      let last = ref 0 in
      for k = 1 to 100_000 do
        let got = Prng.weighted_index g w
        and want = reference_weighted_index r w in
        if got <> want then
          Alcotest.failf "[|%s|]: draw %d is %d, the reference gives %d" label
            k got want;
        if got = Array.length w - 1 then incr last
      done;
      if w.(Array.length w - 1) > 0.0 && !last = 0 then
        Alcotest.failf "[|%s|]: the last index was never drawn" label)
    [
      [| 1.0; 2.0; 3.0 |];
      [| 1.0; 0.0; 3.0 |];
      [| 0.0; 0.0; 5.0 |];
      [| 7.0 |];
      [| 0.1; 0.2; 0.3; 0.4 |];
      [| 0.5; 1e-300; 0.25 |];
    ];
  Alcotest.check_raises "all zero"
    (Invalid_argument "Prng.weighted_index: weights sum to zero") (fun () ->
      ignore (Prng.weighted_index (Prng.create 1) [| 0.0; 0.0 |]))

let test_alias_matches_weights () =
  let g = Prng.create 13 in
  let w = [| 0.5; 2.0; 1.5; 0.0; 4.0 |] in
  let dist = Prng.Alias.create w in
  Alcotest.(check int) "size" 5 (Prng.Alias.size dist);
  let counts = Array.make 5 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let i = Prng.Alias.sample g dist in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(3);
  let total_w = 8.0 in
  Array.iteri
    (fun i c ->
      if w.(i) > 0.0 then begin
        let expected = w.(i) /. total_w *. float_of_int draws in
        let dev = Float.abs (float_of_int c -. expected) /. expected in
        Alcotest.(check bool) (Printf.sprintf "weight %d within 5%%" i) true (dev < 0.05)
      end)
    counts

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "all zero"
    (Invalid_argument "Prng.Alias.create: weights must be nonnegative, not all zero")
    (fun () -> ignore (Prng.Alias.create [| 0.0; 0.0 |]))

let test_geometric_mean () =
  let g = Prng.create 14 in
  let p = 0.25 in
  let total = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total + Prng.geometric g p
  done;
  (* Mean of failures-before-success is (1-p)/p = 3. *)
  let mean = float_of_int !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 3" true (mean > 2.85 && mean < 3.15)

let test_exponential_mean () =
  let g = Prng.create 15 in
  let total = ref 0.0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total +. Prng.exponential g 2.0
  done;
  let mean = !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 0.5" true (mean > 0.47 && mean < 0.53)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic replay" `Quick test_splitmix_reference;
          Alcotest.test_case "copy independent" `Quick test_splitmix_copy_independent;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "rejects zero state" `Quick test_xoshiro_rejects_zero_state;
          Alcotest.test_case "jump diverges" `Quick test_xoshiro_jump_diverges;
          Alcotest.test_case "oracle reference outputs" `Quick test_oracle_reference;
          QCheck_alcotest.to_alcotest prop_xoshiro_matches_oracle;
        ] );
      ( "prng",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
          QCheck_alcotest.to_alcotest prop_int_matches_reference;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
          Alcotest.test_case "unit-interval draws: no allocation, same draws"
            `Quick test_unit_draws;
          Alcotest.test_case "int_in inclusive" `Quick test_int_in_inclusive;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool balanced" `Slow test_bool_balanced;
          Alcotest.test_case "pair distinct ordered" `Quick test_pair_distinct_ordered;
          Alcotest.test_case "pair uniform" `Slow test_pair_uniform_over_pairs;
          Alcotest.test_case "split decorrelated" `Quick test_split_decorrelated;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "weighted index" `Slow test_weighted_index;
          Alcotest.test_case "weighted index: no allocation, same draws"
            `Quick test_weighted_index_loops;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        ] );
      ( "alias",
        [
          Alcotest.test_case "matches weights" `Slow test_alias_matches_weights;
          Alcotest.test_case "rejects bad weights" `Quick test_alias_rejects_bad_weights;
        ] );
    ]
