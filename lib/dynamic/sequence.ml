type t = Interaction.t array

let of_array a = a
let of_list l = Array.of_list l
let of_pairs l = Array.of_list (List.map (fun (a, b) -> Interaction.make a b) l)
let length = Array.length

let get s t =
  if t < 0 || t >= Array.length s then invalid_arg "Sequence.get: time out of bounds";
  s.(t)

let unsafe_get (s : t) t = Array.unsafe_get s t
let unsafe_array s = s
let to_array s = Array.copy s
let to_list = Array.to_list

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length s then
    invalid_arg "Sequence.sub: invalid range";
  Array.sub s pos len

let append = Array.append

let repeat s k =
  if k < 0 then invalid_arg "Sequence.repeat: negative count";
  Array.concat (List.init k (fun _ -> s))

let rev s =
  let n = Array.length s in
  Array.init n (fun i -> s.(n - 1 - i))

let max_node s =
  let m = ref (-1) in
  for t = 0 to Array.length s - 1 do
    let v = Interaction.v (Array.unsafe_get s t) in
    if v > !m then m := v
  done;
  !m

let iteri = Array.iteri
let fold = Array.fold_left

let count_involving s u =
  Array.fold_left (fun acc i -> if Interaction.involves i u then acc + 1 else acc) 0 s

let interactions_of s u =
  let acc = ref [] in
  Array.iteri (fun t i -> if Interaction.involves i u then acc := (t, i) :: !acc) s;
  List.rev !acc

let pp ppf s =
  Format.fprintf ppf "@[<hov>";
  Array.iteri
    (fun t i ->
      if t > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%d:%a" t Interaction.pp i)
    s;
  Format.fprintf ppf "@]"

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Interaction.equal a b
