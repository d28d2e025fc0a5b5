(* The four 64-bit state words live in a 32-byte [Bytes.t], read and
   written through the compiler's 64-bit bytes primitives. Each of
   [get64] / [set64] compiles to one machine load or store: no bounds
   check, no box, no C call and no write barrier (bytes hold no
   pointers). [next_bits] — four loads, a dozen logical ops, four
   stores — is therefore straight-line code that allocates nothing.
   The obvious alternatives pay on every draw: mutable [int64] record
   fields box each store and run [caml_modify], and a float array
   needs [Int64.bits_of_float] / [float_of_bits], which are C calls on
   a compiler without flambda. Nothing serialises the state, so native
   byte order is fine. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  g

(* s3 down to s0: the state used to be built as a record literal whose
   fields evaluate right to left, so the first SplitMix64 draw landed
   in s3. Keep that order — every committed benchmark table depends on
   the seeded stream. *)
let create seed =
  let sm = Splitmix64.create seed in
  let s3 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s0 = Splitmix64.next sm in
  of_words s0 s1 s2 s3

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256ss.of_state: all-zero state";
  of_words s0 s1 s2 s3

let copy = Bytes.copy

(* One step of the xoshiro256** update, shared by [next] and
   [next_bits]; inlined into both so the words stay unboxed in
   registers between the loads and the stores. *)
let[@inline always] step (g : t) =
  let s0 = get64 g 0 in
  let s1 = get64 g 8 in
  let s2 = get64 g 16 in
  let s3 = get64 g 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  result

let next g = step g

let next_bits g ~drop = Int64.to_int (Int64.shift_right_logical (step g) drop)

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump g =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun w ->
      for b = 0 to 63 do
        if Int64.(logand w (shift_left 1L b)) <> 0L then begin
          s0 := Int64.logxor !s0 (get64 g 0);
          s1 := Int64.logxor !s1 (get64 g 8);
          s2 := Int64.logxor !s2 (get64 g 16);
          s3 := Int64.logxor !s3 (get64 g 24)
        end;
        ignore (next g)
      done)
    jump_table;
  set64 g 0 !s0;
  set64 g 8 !s1;
  set64 g 16 !s2;
  set64 g 24 !s3
