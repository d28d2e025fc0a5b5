module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction
module Prng = Doda_prng.Prng

let word_bits = Bit_planes.word_bits

type stats = { mutable decodes : int; mutable lane_steps : int }

let fresh_stats () = { decodes = 0; lane_steps = 0 }
let stats = fresh_stats

(* Index of the single set bit of [b] (which may be the sign bit):
   branchy binary reduction — portable, no popcount intrinsic. *)
let ntz b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then (n := !n + 32; b := !b lsr 32);
  if !b land 0xFFFF = 0 then (n := !n + 16; b := !b lsr 16);
  if !b land 0xFF = 0 then (n := !n + 8; b := !b lsr 8);
  if !b land 0xF = 0 then (n := !n + 4; b := !b lsr 4);
  if !b land 0x3 = 0 then (n := !n + 2; b := !b lsr 2);
  if !b land 0x1 = 0 then incr n;
  !n

(* Only the coin rules draw per replication, so only they get
   bit-parallel lanes; [Once] is a deterministic function of the
   schedule and runs once. *)
let coin_reps ~limit ~record ~stats ~rngs ~sink_only ~p schedule r =
  let n = Schedule.n schedule and sink = Schedule.sink schedule in
  (* Success criterion from the problem family, not hard-coded: the
     batch executes single-sink aggregation, whose target owner count
     is [Problem.target_owners]. *)
  let target = Problem.target_owners (Problem.aggregation ~sink) in
  let w = Bit_planes.words r in
  (* Plane word [v * w + word]: bit [b] set iff node [v] still holds
     data in replication [word * word_bits + b]. *)
  let planes = Array.make (n * w) 0 in
  let live = Array.make w 0 in
  for word = 0 to w - 1 do
    let full = Bit_planes.word_mask ~bits:r word in
    if n > target then live.(word) <- full;
    for v = 0 to n - 1 do
      planes.((v * w) + word) <- full
    done
  done;
  let alive = ref (if n > target then r else 0) in
  let owners = Array.make r n in
  let tx = Array.make r 0 in
  let last_time = Array.make r (-1) in
  let record_all = record = `All in
  let logs =
    if record_all then Array.init r (fun _ -> Run_log.create ~capacity:n ())
    else [||]
  in
  let cur = Schedule.cursor schedule in
  (* Commit sender [s] -> receiver [rcv] at time [t] for replication
     bit [bit] of plane word [word]. The transmit-once model bounds
     commits by [r * (n - 1)] over the whole batch. *)
  let commit ~t word bit ~s ~rcv =
    planes.((s * w) + word) <- planes.((s * w) + word) land lnot bit;
    let rep = (word * word_bits) + ntz bit in
    owners.(rep) <- owners.(rep) - 1;
    tx.(rep) <- tx.(rep) + 1;
    last_time.(rep) <- t;
    if record_all then Run_log.add logs.(rep) ~time:t ~sender:s ~receiver:rcv;
    if owners.(rep) = target then begin
      live.(word) <- live.(word) land lnot bit;
      decr alive
    end
  in
  (* Every holding replication of the word in [m] flips its own coin;
     [always] commits without a draw. *)
  let flip ~t word m ~s ~rcv ~always =
    let rem = ref m in
    while !rem <> 0 do
      let bit = !rem land (- !rem) in
      rem := !rem lxor bit;
      if always || Prng.bernoulli rngs.((word * word_bits) + ntz bit) p then
        commit ~t word bit ~s ~rcv
    done
  in
  let t = ref 0 in
  while !alive > 0 && !t < limit do
    if !t >= cur.hi then Schedule.advance cur !t;
    let i = Array.unsafe_get cur.blk (!t - cur.base) in
    stats.decodes <- stats.decodes + 1;
    stats.lane_steps <- stats.lane_steps + !alive;
    let u = Interaction.u i and v = Interaction.v i in
    (* The sink receives when met; elsewhere [v] sends to the smaller
       endpoint [u]. The scalar decides short-circuit, so a coin is
       drawn only where both endpoints still hold: Coin_sink on sink
       meetings (it ignores the rest), Coin_gather away from the sink
       (its sink meetings always commit). *)
    let at_sink = u = sink || v = sink in
    if at_sink || not sink_only then begin
      let rcv = if v = sink then v else u in
      let s = if rcv = u then v else u in
      let bu = u * w and bv = v * w in
      for word = 0 to w - 1 do
        let m = planes.(bu + word) land planes.(bv + word) land live.(word) in
        flip ~t:!t word m ~s ~rcv ~always:(at_sink && not sink_only)
      done
    end;
    incr t
  done;
  let final_clock = !t in
  Array.init r (fun rep ->
      let aggregated = owners.(rep) = target in
      let word = rep / word_bits and bit = 1 lsl (rep mod word_bits) in
      {
        Engine.stop =
          Engine.stop_reason schedule ~clock:final_clock ~solved:aggregated;
        duration = (if aggregated then Some last_time.(rep) else None);
        steps = (if aggregated then last_time.(rep) + 1 else final_clock);
        log = (if record_all then logs.(rep) else Run_log.create ());
        transmission_count = tx.(rep);
        holders =
          Array.init n (fun v -> planes.((v * w) + word) land bit <> 0);
      })

let runs_once (algo : Algorithm.t) =
  match algo.batch with
  | Some Algorithm.Once -> true
  | Some (Algorithm.Coin_sink _ | Algorithm.Coin_gather _) | None -> false

let run_reps ?max_steps ?(record = `All) ?rngs ?(stats = fresh_stats ())
    (algo : Algorithm.t) schedule r =
  if r < 0 then invalid_arg "Batch_engine.run_reps: negative replication count";
  let rule =
    match algo.batch with
    | Some rule -> rule
    | None ->
        invalid_arg
          (Printf.sprintf
             "Batch_engine.run_reps: %s has no batch rule (Once / Coin_sink / \
              Coin_gather); run it with Engine.run"
             algo.name)
  in
  let limit = Engine.limit ?max_steps ~what:"Batch_engine.run_reps" schedule in
  let coin ~sink_only p =
    match rngs with
    | Some a when Array.length a >= r ->
        coin_reps ~limit ~record ~stats ~rngs:a ~sink_only ~p schedule r
    | Some _ ->
        invalid_arg "Batch_engine.run_reps: fewer rngs than replications"
    | None ->
        invalid_arg
          (Printf.sprintf
             "Batch_engine.run_reps: %s needs one rng per replication"
             algo.name)
  in
  match rule with
  | Algorithm.Coin_sink p -> coin ~sink_only:true p
  | Algorithm.Coin_gather p -> coin ~sink_only:false p
  | Algorithm.Once ->
      (* Every replication is the same execution: run it once and hand
         out copies. One lane steps once per decode. *)
      if r = 0 then [||]
      else
        let one = Engine.run ?max_steps ~record algo schedule in
        stats.decodes <- stats.decodes + one.steps;
        stats.lane_steps <- stats.lane_steps + one.steps;
        Array.init r (fun _ ->
            { one with Engine.holders = Array.copy one.Engine.holders })
