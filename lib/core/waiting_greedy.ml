module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule

(* Deterministic fair-ish coin for the both-beyond-tau case (shared
   with the other meet-time policies via [Algorithm.hash_coin]). *)
let hash_coin = Algorithm.hash_coin

let make ?(exact = false) ~tau () =
  if tau < 0 then invalid_arg "Waiting_greedy.make: negative tau";
  {
    Algorithm.name = Printf.sprintf "waiting-greedy(tau=%d%s)" tau
        (if exact then ",exact" else "");
    oblivious = true;
    requires =
      (if exact then [ Knowledge.Meet_time; Knowledge.Full_schedule ]
       else [ Knowledge.Meet_time ]);
    batch =
      (* Exact mode reads the schedule length, which a batched schedule
         need not have. *)
      (if exact then None else Some Algorithm.Once);
    make =
      (fun ~n:_ ~sink knowledge ->
        let meet_time = Option.get knowledge.Knowledge.meet_time in
        let limit =
          if exact then
            match knowledge.Knowledge.full with
            | Some sched -> (
                match Schedule.length sched with
                | Some len -> len
                | None ->
                    invalid_arg
                      "Waiting_greedy: exact mode needs a finite schedule")
            | None -> invalid_arg "Waiting_greedy: exact mode needs the schedule"
          else tau
        in
        (* meet time of a node at [time], capped: the sink's meet time
           is the identity (paper convention). *)
        let meet node time =
          if node = sink then Some time
          else meet_time ~node ~time ~limit
        in
        {
          Algorithm.observe = Algorithm.no_observation;
          decide =
            (fun ~time i ->
              let u1 = Interaction.u i and u2 = Interaction.v i in
              match (meet u1 time, meet u2 time) with
              | Some m1, Some m2 ->
                  if m1 <= m2 then if tau < m2 then Some u1 else None
                  else if tau < m1 then Some u2
                  else None
              | Some _, None -> Some u1  (* m2 > limit >= tau: u2 sends *)
              | None, Some _ -> Some u2
              | None, None ->
                  (* Both beyond the cap: exchangeable; deterministic coin. *)
                  if hash_coin ~time u1 u2 then Some u1 else Some u2);
        });
  }

let with_recommended_tau ?exact n = make ?exact ~tau:(Theory.recommended_tau n) ()

let doubling ?(tau0 = 16) () =
  if tau0 < 1 then invalid_arg "Waiting_greedy.doubling: tau0 must be positive";
  let current_tau time =
    let tau = ref tau0 in
    while !tau <= time do
      tau := 2 * !tau
    done;
    !tau
  in
  {
    Algorithm.name = Printf.sprintf "waiting-greedy-doubling(tau0=%d)" tau0;
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
              let tau = current_tau time in
              let meet node =
                if node = sink then Some time
                else meet_time ~node ~time ~limit:tau
              in
              let u1 = Interaction.u i and u2 = Interaction.v i in
              match (meet u1, meet u2) with
              | Some m1, Some m2 ->
                  if m1 <= m2 then if tau < m2 then Some u1 else None
                  else if tau < m1 then Some u2
                  else None
              | Some _, None -> Some u1
              | None, Some _ -> Some u2
              | None, None -> if hash_coin ~time u1 u2 then Some u1 else Some u2);
        });
  }
