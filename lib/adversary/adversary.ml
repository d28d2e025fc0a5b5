type view = {
  time : int;
  holders : bool array;
  last_transmission : Doda_core.Engine.transmission option;
}

type t = { name : string; next : view -> Doda_dynamic.Interaction.t option }

let of_sequence ~name s =
  {
    name;
    next =
      (fun view ->
        if view.time < Doda_dynamic.Sequence.length s then
          Some (Doda_dynamic.Sequence.get s view.time)
        else None);
  }

let of_generator ~name gen = { name; next = (fun view -> Some (gen view.time)) }

let limit k adv =
  {
    name = Printf.sprintf "%s|%d" adv.name k;
    next = (fun view -> if view.time >= k then None else adv.next view);
  }
