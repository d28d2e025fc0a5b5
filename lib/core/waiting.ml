module Interaction = Doda_dynamic.Interaction

let algorithm =
  {
    Algorithm.name = "waiting";
    oblivious = true;
    requires = [];
    batch = Some Algorithm.Once;
    make =
      (fun ~n:_ ~sink _knowledge ->
        {
          Algorithm.observe = Algorithm.no_observation;
          decide =
            (fun ~time:_ i ->
              if Interaction.involves i sink then Some sink else None);
        });
  }
