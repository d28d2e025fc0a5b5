(* Packed immediate encoding: [(u lsl 31) lor v] with [0 <= u < v <
   2^31]. An interaction is an unboxed OCaml int, so interaction arrays
   are flat int arrays (cache-linear, no per-element allocation) and
   the packed order — plain [Int.compare] — coincides with the
   lexicographic order on [(u, v)] because [u] occupies the high bits. *)

type t = int

let max_node_id = (1 lsl 31) - 1

let make a b =
  if a = b then invalid_arg "Interaction.make: self-interaction";
  if a < 0 || b < 0 then invalid_arg "Interaction.make: negative node id";
  if a > max_node_id || b > max_node_id then
    invalid_arg "Interaction.make: node id exceeds 2^31 - 1";
  if a < b then (a lsl 31) lor b else (b lsl 31) lor a

let u i = i lsr 31
let v i = i land max_node_id
let involves i x = u i = x || v i = x

let other i x =
  if x = u i then v i
  else if x = v i then u i
  else invalid_arg "Interaction.other: node not an endpoint"

let equal (a : int) (b : int) = a = b
let compare = Int.compare
let hash i = i

let to_int i = i

let of_int p =
  if p < 0 || p lsr 31 >= p land max_node_id then
    invalid_arg "Interaction.of_int: not a packed interaction"
  else p

let of_int_unchecked p = p
let unsafe_of_ints (a : int array) = a
let to_pair i = (u i, v i)
let pp ppf i = Format.fprintf ppf "{%d,%d}" (u i) (v i)
let to_string i = Printf.sprintf "{%d,%d}" (u i) (v i)
let dummy = 1 (* {0,1} *)
