type t =
  | Json of Doda_sim.Json.t
  | Data of string

let max_payload = 16 * 1024 * 1024

let write oc frame =
  let tag, payload =
    match frame with
    | Json j -> 'J', Doda_sim.Json.to_string j
    | Data s -> 'D', s
  in
  let len = String.length payload in
  if len > max_payload then
    invalid_arg
      (Printf.sprintf "Frame.write: payload %d exceeds max %d" len max_payload);
  output_char oc tag;
  (* output_binary_int writes the low 32 bits big-endian — exactly the
     wire format, and lengths are bounded well below 2^31. *)
  output_binary_int oc len;
  output_string oc payload;
  flush oc

let really_input_opt ic buf pos len =
  match really_input ic buf pos len with
  | () -> true
  | exception End_of_file -> false

(* A body is read in steps of at most [step] bytes into a buffer that
   doubles, up to [len], as they arrive: a length prefix alone never
   allocates more than one step. A body of at most one step is read in
   one piece. *)
let step = 65536

let read_body ic len =
  let rec go buf got =
    if got = len then Some buf
    else
      let buf =
        if got < Bytes.length buf then buf
        else begin
          let grown = Bytes.create (Int.min len (2 * got)) in
          Bytes.blit buf 0 grown 0 got;
          grown
        end
      in
      let k = Int.min step (Bytes.length buf - got) in
      if really_input_opt ic buf got k then go buf (got + k) else None
  in
  go (Bytes.create (Int.min len step)) 0

let read ic =
  match input_char ic with
  | exception End_of_file -> None
  | tag -> (
      match input_binary_int ic with
      | exception End_of_file -> Some (Error "truncated frame header")
      | len ->
          if len < 0 || len > max_payload then
            Some
              (Error
                 (Printf.sprintf "frame length %d out of bounds (max %d)" len
                    max_payload))
          else
            match read_body ic len with
            | None ->
                Some
                  (Error
                     (Printf.sprintf "truncated frame body (wanted %d bytes)" len))
            | Some buf -> (
                let payload = Bytes.unsafe_to_string buf in
                match tag with
                | 'D' -> Some (Ok (Data payload))
                | 'J' -> (
                    match Doda_sim.Json.parse payload with
                    | Ok j -> Some (Ok (Json j))
                    | Error e ->
                        Some (Error (Printf.sprintf "bad JSON frame: %s" e)))
                | c -> Some (Error (Printf.sprintf "unknown frame tag %C" c))))
