module Interaction = Doda_dynamic.Interaction

let hash_coin = Algorithm.hash_coin

(* Shared shape: compare capped meet times, transmit from the later
   endpoint when [fire] accepts its (possibly unknown) meet time. *)
let policy ~name ~limit_of ~fire =
  {
    Algorithm.name;
    oblivious = true;
    requires = [ Knowledge.Meet_time ];
    batch = Some Algorithm.Once;
    make =
      (fun ~n:_ ~sink knowledge ->
        let meet_time = Option.get knowledge.Knowledge.meet_time in
        {
          Algorithm.observe = Algorithm.no_observation;
          decide =
            (fun ~time i ->
              let limit = limit_of ~time in
              let meet node =
                if node = sink then Some time
                else meet_time ~node ~time ~limit
              in
              let u1 = Interaction.u i and u2 = Interaction.v i in
              match (meet u1, meet u2) with
              | Some m1, Some m2 ->
                  if m1 <= m2 then if fire ~time (Some m2) then Some u1 else None
                  else if fire ~time (Some m1) then Some u2
                  else None
              | Some _, None -> if fire ~time None then Some u1 else None
              | None, Some _ -> if fire ~time None then Some u2 else None
              | None, None ->
                  if fire ~time None then
                    if hash_coin ~time u1 u2 then Some u1 else Some u2
                  else None);
        });
  }

let pure_greedy ~horizon =
  if horizon < 1 then invalid_arg "Meet_time_policies.pure_greedy: horizon < 1";
  policy
    ~name:(Printf.sprintf "pure-greedy(horizon=%d)" horizon)
    ~limit_of:(fun ~time:_ -> horizon)
    ~fire:(fun ~time:_ _ -> true)

let sliding_window ~theta =
  if theta < 0 then invalid_arg "Meet_time_policies.sliding_window: negative theta";
  policy
    ~name:(Printf.sprintf "sliding-window(theta=%d)" theta)
    ~limit_of:(fun ~time -> time + theta)
    ~fire:(fun ~time sender_meet ->
      match sender_meet with
      | None -> true  (* beyond time + theta: late enough to spend *)
      | Some m -> m > time + theta)
