type instance = {
  observe : time:int -> Doda_dynamic.Interaction.t -> unit;
  decide : time:int -> Doda_dynamic.Interaction.t -> int option;
}

type batch_rule = Once | Coin_sink of float | Coin_gather of float

type t = {
  name : string;
  oblivious : bool;
  requires : Knowledge.requirement list;
  batch : batch_rule option;
  make : n:int -> sink:int -> Knowledge.t -> instance;
}

let no_observation ~time:_ _ = ()

(* Deterministic fair-ish coin shared by every meet-time policy and the
   hash gathering tiebreak: any fixed function of (t, u1, u2) is
   admissible since the two unknown meet times are exchangeable. *)
let hash_coin ~time a b =
  let h = (time * 0x9E3779B1) lxor (a * 0x85EBCA77) lxor (b * 0xC2B2AE3D) in
  let h = (h lxor (h lsr 13)) * 0x27D4EB2F land max_int in
  h land 1 = 0

let check_knowledge name knowledge requirements =
  match Knowledge.missing knowledge requirements with
  | [] -> ()
  | miss ->
      let names = String.concat ", " (List.map Knowledge.requirement_name miss) in
      invalid_arg (Printf.sprintf "%s: missing knowledge: %s" name names)
