module Prng = Doda_prng.Prng

(* [Interaction.make] as the continuation: a closed top-level function,
   so a draw builds no tuple and no closure. *)
let uniform rng ~n _t = Prng.pair_with rng n Interaction.make

let uniform_sequence rng ~n ~length =
  Sequence.of_array (Array.init length (uniform rng ~n))

let weighted_nodes rng ~weights =
  let positive = Array.fold_left (fun c w -> if w > 0.0 then c + 1 else c) 0 weights in
  if positive < 2 then
    invalid_arg "Generators.weighted_nodes: need at least two positive weights";
  let dist = Prng.Alias.create weights in
  fun _t ->
    let a = Prng.Alias.sample rng dist in
    let rec draw_other () =
      let b = Prng.Alias.sample rng dist in
      if b = a then draw_other () else b
    in
    Interaction.make a (draw_other ())

let over_graph rng graph =
  let edge_array = Array.of_list (Doda_graph.Static_graph.edges graph) in
  if Array.length edge_array = 0 then
    invalid_arg "Generators.over_graph: graph has no edges";
  fun _t ->
    let u, v = Prng.choose rng edge_array in
    Interaction.make u v

let all_pairs ~n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      acc := (u, v) :: !acc
    done
  done;
  Sequence.of_pairs !acc

let round_robin ~n =
  let period = all_pairs ~n in
  let len = Sequence.length period in
  fun t -> Sequence.get period (t mod len)

let periodic s =
  let len = Sequence.length s in
  if len = 0 then invalid_arg "Generators.periodic: empty sequence";
  fun t -> Sequence.get s (t mod len)

let of_snapshots snapshots =
  let pairs =
    List.concat_map (fun g -> Doda_graph.Static_graph.edges g) snapshots
  in
  Sequence.of_pairs pairs

let check_markov_args ~p_on ~p_off =
  if p_on <= 0.0 || p_on > 1.0 || p_off <= 0.0 || p_off > 1.0 then
    invalid_arg "Generators.markov_edges: probabilities must lie in (0, 1]"

(* Pair index -> packed interaction, triangular order: (u, v), u < v. *)
let pair_index ~n =
  let index = Array.make (n * (n - 1) / 2) Interaction.dummy in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      index.(!k) <- Interaction.make u v;
      incr k
    done
  done;
  index

let markov_edges ?on_active rng ~n ~p_on ~p_off =
  check_markov_args ~p_on ~p_off;
  let pairs = n * (n - 1) / 2 in
  let index = pair_index ~n in
  (* Event-driven chain: instead of flipping a Bernoulli for every pair
     at every step, each pair samples its next state toggle directly —
     a geometric sojourn is exactly the waiting time of the per-step
     Bernoulli — and sits on a timing wheel until that step arrives.
     Advancing costs O(toggles due) instead of O(n^2), and the draw
     stream shrinks from n(n-1)/2 Bernoullis per step to one geometric
     per state change (~p_on * pairs of them per step at
     stationarity). Distribution-identical to the dense reference (the
     per-pair chains have the same law, and the uniform pick below
     does not depend on how the active set is ordered), but not
     stream-identical: committed baselines over markov traces change
     and test/test_generators.ml proves the equivalence by KS. *)
  let wheel = Gen_kernel.Wheel.create ~ids:pairs in
  let active = Array.make pairs 0 in  (* dense ids of active pairs *)
  let slot_of = Array.make pairs (-1) in  (* position in [active], -1 = off *)
  let count = ref 0 in
  let time = ref 0 in
  (* Sojourn in the current state: the number of steps until the flip,
     counting the flipping step, is 1 + Geom(p). *)
  let next_after p = !time + 1 + Prng.geometric rng p in
  for i = 0 to pairs - 1 do
    Gen_kernel.Wheel.schedule wheel ~id:i ~at:(next_after p_on)
  done;
  let toggle i =
    if slot_of.(i) >= 0 then begin
      let last = !count - 1 in
      let moved = active.(last) in
      active.(slot_of.(i)) <- moved;
      slot_of.(moved) <- slot_of.(i);
      slot_of.(i) <- -1;
      count := last;
      Gen_kernel.Wheel.schedule wheel ~id:i ~at:(next_after p_on)
    end
    else begin
      slot_of.(i) <- !count;
      active.(!count) <- i;
      incr count;
      Gen_kernel.Wheel.schedule wheel ~id:i ~at:(next_after p_off)
    end
  in
  let advance () =
    incr time;
    Gen_kernel.Wheel.advance wheel ~now:!time toggle
  in
  fun _t ->
    advance ();
    while !count = 0 do
      advance ()
    done;
    (match on_active with Some f -> f !count | None -> ());
    index.(active.(Prng.int rng !count))

let markov_edges_dense ?on_active rng ~n ~p_on ~p_off =
  check_markov_args ~p_on ~p_off;
  let pairs = n * (n - 1) / 2 in
  let active = Array.make pairs false in
  let index = pair_index ~n in
  (* Active pair indices land in [present.(start .. pairs - 1)], in
     increasing order: the Bernoulli transitions are drawn high to low
     (the draw order the original list-building version used), filling
     the buffer from the back. *)
  let present = Array.make pairs 0 in
  let start = ref pairs in
  let advance () =
    start := pairs;
    for i = pairs - 1 downto 0 do
      active.(i) <-
        (if active.(i) then not (Prng.bernoulli rng p_off)
         else Prng.bernoulli rng p_on);
      if active.(i) then begin
        decr start;
        present.(!start) <- i
      end
    done
  in
  fun _t ->
    advance ();
    while !start = pairs do
      advance ()
    done;
    let count = pairs - !start in
    (match on_active with Some f -> f count | None -> ());
    index.(present.(!start + Prng.int rng count))

let stitch segments =
  if segments = [] then invalid_arg "Generators.stitch: empty segment list";
  fun t ->
    let rec select t = function
      | [] -> assert false
      | [ (_, gen) ] -> gen t
      | (len, gen) :: rest -> if t < len then gen t else select (t - len) rest
    in
    select t segments
