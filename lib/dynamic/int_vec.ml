type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () =
  if capacity < 0 then invalid_arg "Int_vec.create: negative capacity";
  { data = Array.make (Stdlib.max 1 capacity) 0; len = 0 }

let length v = v.len

let check v i name =
  if i < 0 || i >= v.len then
    invalid_arg ("Int_vec." ^ name ^ ": index out of bounds")

let get v i =
  check v i "get";
  Array.unsafe_get v.data i

let set v i x =
  check v i "set";
  Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data = Array.make (2 * cap) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let last v =
  if v.len = 0 then invalid_arg "Int_vec.last: empty vector";
  v.data.(v.len - 1)

let to_array v = Array.sub v.data 0 v.len

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let clear v = v.len <- 0

let truncate v len =
  if len < 0 || len > v.len then
    invalid_arg "Int_vec.truncate: length out of bounds";
  v.len <- len

let unsafe_get v i = Array.unsafe_get v.data i
let unsafe_data v = v.data
let unsafe_set v i x = Array.unsafe_set v.data i x
