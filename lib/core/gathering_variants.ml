module Interaction = Doda_dynamic.Interaction

type tiebreak = Smaller_id | Larger_id | More_data | Hash

let tiebreak_name = function
  | Smaller_id -> "smaller-id"
  | Larger_id -> "larger-id"
  | More_data -> "more-data"
  | Hash -> "hash"

let hash_coin = Algorithm.hash_coin

let make tiebreak =
  {
    Algorithm.name = "gathering-" ^ tiebreak_name tiebreak;
    oblivious = (match tiebreak with More_data -> false | _ -> true);
    requires = [];
    batch = Some Algorithm.Once;
    make =
      (fun ~n ~sink _knowledge ->
        let payload = Array.make n 1 in
        let receiver_of ~time u v =
          match tiebreak with
          | Smaller_id -> u
          | Larger_id -> v
          | Hash -> if hash_coin ~time u v then u else v
          | More_data ->
              if payload.(u) > payload.(v) then u
              else if payload.(v) > payload.(u) then v
              else u
        in
        {
          Algorithm.observe = Algorithm.no_observation;
          decide =
            (fun ~time i ->
              let u = Interaction.u i and v = Interaction.v i in
              let receiver =
                if u = sink || v = sink then sink else receiver_of ~time u v
              in
              let sender = Interaction.other i receiver in
              payload.(receiver) <- payload.(receiver) + payload.(sender);
              payload.(sender) <- 0;
              Some receiver);
        });
  }

let all = List.map make [ Smaller_id; Larger_id; More_data; Hash ]
