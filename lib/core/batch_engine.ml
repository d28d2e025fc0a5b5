module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction
module Prng = Doda_prng.Prng

let word_bits = Bit_planes.word_bits

type stats = { mutable decodes : int; mutable lane_steps : int }

let fresh_stats () = { decodes = 0; lane_steps = 0 }
let stats = fresh_stats
let batch_supported (algo : Algorithm.t) = algo.batch <> None

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

(* ------------------------------------------------------------------ *)
(* Lockstep algorithm sweep: one lane per rival, packed into one word. *)

type lane =
  | Token
  | Gather_to of Algorithm.gather_tiebreak * int array
      (* payload plane, size n for To_heavier, empty otherwise *)
  | Meet of (time:int -> int) * (time:int -> int option -> bool)
  | Generic of Algorithm.instance

let sweep_chunk ~limit ~record ~stats algos schedule =
  let n = Schedule.n schedule and sink = Schedule.sink schedule in
  let target = Problem.target_owners (Problem.aggregation ~sink) in
  let lanes = Array.of_list algos in
  let l = Array.length lanes in
  let names = Array.map (fun (a : Algorithm.t) -> a.Algorithm.name) lanes in
  (* Instances are created up front in list order: consecutive scalar
     [Engine.run]s would create them in the same order, so coin
     algorithms split their captured master streams identically. *)
  let kinds =
    Array.map
      (fun (algo : Algorithm.t) ->
        match algo.batch with
        | Some Algorithm.Token_sink -> Token
        | Some (Algorithm.Gather tb) ->
            Gather_to
              ( tb,
                match tb with
                | Algorithm.To_heavier -> Array.make n 1
                | _ -> [||] )
        | Some (Algorithm.Meet_policy { limit_of; fire }) ->
            Meet (limit_of, fire)
        | Some (Algorithm.Coin_sink _) | Some (Algorithm.Coin_gather _) | None
          ->
            let knowledge = Knowledge.for_schedule schedule algo.requires in
            Algorithm.check_knowledge algo.name knowledge algo.requires;
            Generic (algo.make ~n ~sink knowledge))
      lanes
  in
  let meet_mask = ref 0 in
  let generics = ref [] in
  Array.iteri
    (fun lane kind ->
      match kind with
      | Meet _ -> meet_mask := !meet_mask lor (1 lsl lane)
      | Generic inst -> generics := (lane, inst) :: !generics
      | Token | Gather_to _ -> ())
    kinds;
  let meet_mask = !meet_mask in
  let generics = Array.of_list (List.rev !generics) in
  let full = Bit_planes.word_mask ~bits:l 0 in
  (* planes.(v) bit [lane]: node [v] still holds data in that lane. *)
  let planes = Array.make n full in
  let live = ref (if n > target then full else 0) in
  let alive = ref (if n > target then l else 0) in
  let owners = Array.make l n in
  let tx = Array.make l 0 in
  let last_time = Array.make l (-1) in
  let record_all = record = `All in
  let logs =
    if record_all then Array.init l (fun _ -> Run_log.create ~capacity:n ())
    else [||]
  in
  let lims = Array.make l 0 in
  let stp =
    if meet_mask <> 0 then Some (Schedule.stepper schedule) else None
  in
  let cur = Schedule.cursor schedule in
  let t = ref 0 in
  while !alive > 0 && !t < limit do
    let time = !t in
    if time >= cur.hi then Schedule.advance cur time;
    let i = Array.unsafe_get cur.blk (time - cur.base) in
    stats.decodes <- stats.decodes + 1;
    stats.lane_steps <- stats.lane_steps + !alive;
    let u = Interaction.u i and v = Interaction.v i in
    (* Scalar engines call [observe] on every step while their run is
       live, transmission or not. *)
    for k = 0 to Array.length generics - 1 do
      let lane, inst = generics.(k) in
      if !live land (1 lsl lane) <> 0 then inst.Algorithm.observe ~time i
    done;
    let m = planes.(u) land planes.(v) land !live in
    if m <> 0 then begin
      (* Shared meet probes: one stepper query per endpoint under the
         maximum live lane limit; per-lane answers filter by their own
         limit, which is equivalent because every lane wants the same
         first meet after [time]. *)
      let mm = m land meet_mask in
      let mu = ref None and mv = ref None in
      if mm <> 0 then begin
        let cap = ref min_int in
        let rem = ref mm in
        while !rem <> 0 do
          let bit = !rem land (- !rem) in
          rem := !rem lxor bit;
          let lane = ntz bit in
          let lim =
            match kinds.(lane) with
            | Meet (limit_of, _) -> limit_of ~time
            | _ -> assert false
          in
          lims.(lane) <- lim;
          if lim > !cap then cap := lim
        done;
        let stp = Option.get stp in
        if u <> sink then
          mu := Schedule.stepper_next_meet stp ~node:u ~after:time ~limit:!cap;
        if v <> sink then
          mv := Schedule.stepper_next_meet stp ~node:v ~after:time ~limit:!cap
      end;
      let rem = ref m in
      while !rem <> 0 do
        let bit = !rem land (- !rem) in
        rem := !rem lxor bit;
        let lane = ntz bit in
        let rcv =
          match kinds.(lane) with
          | Token -> if u = sink || v = sink then Some sink else None
          | Gather_to (tb, payload) ->
              let rcv =
                if u = sink || v = sink then sink
                else
                  match tb with
                  | Algorithm.To_smaller -> u
                  | Algorithm.To_larger -> v
                  | Algorithm.To_hash ->
                      if Algorithm.hash_coin ~time u v then u else v
                  | Algorithm.To_heavier ->
                      if payload.(u) > payload.(v) then u
                      else if payload.(v) > payload.(u) then v
                      else u
              in
              (match tb with
              | Algorithm.To_heavier ->
                  (* Mirrors the scalar decide's payload bookkeeping. *)
                  let s = if rcv = u then v else u in
                  payload.(rcv) <- payload.(rcv) + payload.(s);
                  payload.(s) <- 0
              | _ -> ());
              Some rcv
          | Meet (_, fire) ->
              let lim = lims.(lane) in
              let capped node cached =
                if node = sink then Some time
                else
                  match cached with
                  | Some x when x <= lim -> Some x
                  | _ -> None
              in
              (match (capped u !mu, capped v !mv) with
              | Some m1, Some m2 ->
                  if m1 <= m2 then
                    if fire ~time (Some m2) then Some u else None
                  else if fire ~time (Some m1) then Some v
                  else None
              | Some _, None -> if fire ~time None then Some u else None
              | None, Some _ -> if fire ~time None then Some v else None
              | None, None ->
                  if fire ~time None then
                    if Algorithm.hash_coin ~time u v then Some u else Some v
                  else None)
          | Generic inst -> inst.Algorithm.decide ~time i
        in
        match rcv with
        | None -> ()
        | Some rcv ->
            (* Same model enforcement as [Engine.commit]; batch-rule
               lanes satisfy it by construction, generic lanes can
               misbehave exactly like under the scalar engine. *)
            if not (Interaction.involves i rcv) then
              invalid_arg
                (Printf.sprintf
                   "Batch_engine.sweep: %s returned a non-endpoint receiver"
                   names.(lane));
            let s = Interaction.other i rcv in
            if s = sink then
              invalid_arg
                (Printf.sprintf "Batch_engine.sweep: %s made the sink transmit"
                   names.(lane));
            planes.(s) <- planes.(s) land lnot bit;
            owners.(lane) <- owners.(lane) - 1;
            tx.(lane) <- tx.(lane) + 1;
            last_time.(lane) <- time;
            if record_all then
              Run_log.add logs.(lane) ~time ~sender:s ~receiver:rcv;
            if owners.(lane) = target then begin
              live := !live land lnot bit;
              decr alive
            end
      done
    end;
    incr t
  done;
  let final_clock = !t in
  Array.init l (fun lane ->
      let aggregated = owners.(lane) = target in
      let bit = 1 lsl lane in
      {
        Engine.stop =
          Engine.stop_reason schedule ~clock:final_clock ~solved:aggregated;
        duration = (if aggregated then Some last_time.(lane) else None);
        steps = (if aggregated then last_time.(lane) + 1 else final_clock);
        log = (if record_all then logs.(lane) else Run_log.create ());
        transmission_count = tx.(lane);
        holders = Array.init n (fun node -> planes.(node) land bit <> 0);
      })

let rec split_at k = function
  | [] -> ([], [])
  | l when k = 0 -> ([], l)
  | x :: tl ->
      let a, b = split_at (k - 1) tl in
      (x :: a, b)

let rec sweep ?max_steps ?(record = `All) ?(stats = fresh_stats ()) algos
    schedule =
  let limit = Engine.limit ?max_steps ~what:"Batch_engine.sweep" schedule in
  if List.length algos <= word_bits then
    sweep_chunk ~limit ~record ~stats algos schedule
  else
    let chunk, rest = split_at word_bits algos in
    Array.append
      (sweep_chunk ~limit ~record ~stats chunk schedule)
      (sweep ?max_steps ~record ~stats rest schedule)

(* ------------------------------------------------------------------ *)
(* Replications. Only the coin rules draw per replication, so only they
   get bit-parallel lanes; every other rule is a deterministic function
   of the schedule and runs once. *)

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

(* The one classification of the batch rules: a coin rule draws per
   replication, every other rule is a deterministic function of the
   schedule. *)
let coin_rule = function
  | Algorithm.Coin_sink p -> Some (true, p)
  | Algorithm.Coin_gather p -> Some (false, p)
  | Algorithm.Token_sink | Algorithm.Gather _ | Algorithm.Meet_policy _ -> None

let runs_once (algo : Algorithm.t) =
  match algo.batch with Some rule -> coin_rule rule = None | None -> false

let run_reps ?max_steps ?(record = `All) ?rngs ?(stats = fresh_stats ())
    (algo : Algorithm.t) schedule r =
  if r < 0 then invalid_arg "Batch_engine.run_reps: negative replication count";
  let rule =
    match algo.batch with
    | Some rule -> rule
    | None ->
        invalid_arg
          (Printf.sprintf
             "Batch_engine.run_reps: %s has no batch rule (Token_sink / \
              Coin_sink / Coin_gather / Gather / Meet_policy); fall back to \
              the scalar Engine.run per replication \
              (Experiment.replicate_par)"
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
  match coin_rule rule with
  | Some (sink_only, p) -> coin ~sink_only p
  | None ->
      (* Deterministic: every replication is the same execution, so run
         it once on the sweep's one-lane path and hand out copies. *)
      if r = 0 then [||]
      else
        let one = (sweep_chunk ~limit ~record ~stats [ algo ] schedule).(0) in
        Array.init r (fun _ ->
            { one with Engine.holders = Array.copy one.Engine.holders })
