let to_channel oc s =
  Sequence.iteri
    (fun t i ->
      Printf.fprintf oc "%d %d %d\n" t (Interaction.u i) (Interaction.v i))
    s

let save path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc s)

(* The grammar of a line, written once: [String.trim], split on ' ',
   drop empty tokens, three [int_of_string] tokens. Every line the
   canonical scan below does not take is read here, so every accepted
   value, rejected line and message is this function's. *)
let reference line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ t; u; v ] -> (
        match (int_of_string_opt t, int_of_string_opt u, int_of_string_opt v) with
        | Some t, Some u, Some v -> Some (t, u, v)
        | _ -> failwith ("Trace: malformed line: " ^ line))
    | _ -> failwith ("Trace: malformed line: " ^ line)

(* The fields of the last interaction line scanned. The scanners write
   here instead of returning a tuple, so a canonical line allocates
   nothing. [num] is the value of the last run of digits read. *)
type fields = {
  mutable time : int;
  mutable u : int;
  mutable v : int;
  mutable num : int;
}

let fields () = { time = 0; u = 0; v = 0; num = 0 }

let rec spaces b i hi =
  if i < hi && Bytes.unsafe_get b i = ' ' then spaces b (i + 1) hi else i

(* Reads the run of decimal digits at [i] into [f.num] and returns its
   end. *)
let rec digits f b i hi acc =
  let c = if i < hi then Bytes.unsafe_get b i else ' ' in
  if c >= '0' && c <= '9' then digits f b (i + 1) hi ((10 * acc) + Char.code c - 48)
  else begin
    f.num <- acc;
    i
  end

let rec newline b i hi =
  if i < hi && Bytes.unsafe_get b i <> '\n' then newline b (i + 1) hi else i

(* Eighteen decimal digits never overflow an int, and [int_of_string]
   reads them as [digits] does. *)
let field lo hi = hi > lo && hi - lo <= 18

(* The canonical prefix of [b.[lo, hi)]: spaces, three fields of 1 to
   18 decimal digits separated by spaces, spaces. Stores the fields in
   [f] and returns the index just past the prefix, or -1 when [b] does
   not start that way. On a line that is exactly this prefix the
   reference grammar reads the same three values. *)
let canonical f b lo hi =
  let t0 = spaces b lo hi in
  let t1 = digits f b t0 hi 0 in
  let time = f.num in
  let u0 = spaces b t1 hi in
  let u1 = digits f b u0 hi 0 in
  let u = f.num in
  let v0 = spaces b u1 hi in
  let v1 = digits f b v0 hi 0 in
  if field t0 t1 && u0 > t1 && field u0 u1 && v0 > u1 && field v0 v1 then begin
    f.time <- time;
    f.u <- u;
    f.v <- f.num;
    spaces b v1 hi
  end
  else -1

(* Reads [b.[lo, hi)] as one whole line: [true] with the fields in [f]
   for an interaction line, [false] for a blank or comment line.
   @raise Failure on a malformed line. *)
let parse f b lo hi =
  canonical f b lo hi = hi
  ||
  match reference (Bytes.sub_string b lo (hi - lo)) with
  | None -> false
  | Some (t, u, v) ->
      f.time <- t;
      f.u <- u;
      f.v <- v;
      true

let parse_line line =
  let f = fields () in
  if parse f (Bytes.unsafe_of_string line) 0 (String.length line) then
    Some (f.time, f.u, f.v)
  else None

(* Block reader: lines are spans of one buffer refilled from the input
   by [fill], which follows [input]'s contract (0 at the end of the
   input). A canonical line is parsed in the same pass that finds its
   newline; only other lines are copied out for [reference]. *)
type reader = {
  mutable buf : Bytes.t;
  mutable lo : int;  (* [buf.[lo, hi)] is read but not yet scanned *)
  mutable hi : int;
  mutable last : bool;  (* no input follows [hi] *)
  mutable lines : int;  (* physical lines scanned, for messages *)
  fill : Bytes.t -> int -> int -> int;
  f : fields;
}

let block = 65536

let reader fill =
  { buf = Bytes.create block; lo = 0; hi = 0; last = false; lines = 0; fill;
    f = fields () }

(* Moves the unscanned tail, which holds no whole line, to the front
   and reads after it. A line longer than the buffer doubles it, as
   [input_line] would grow its string. *)
let refill r =
  let tail = r.hi - r.lo in
  if tail = Bytes.length r.buf then begin
    let buf = Bytes.create (2 * tail) in
    Bytes.blit r.buf 0 buf 0 tail;
    r.buf <- buf
  end
  else Bytes.blit r.buf r.lo r.buf 0 tail;
  r.lo <- 0;
  r.hi <- tail;
  let k = r.fill r.buf tail (Bytes.length r.buf - tail) in
  if k = 0 then r.last <- true else r.hi <- tail + k

(* Scans up to the next interaction line, its fields into [r.f];
   [false] at the end of the input. A last line without a newline is a
   line, and an input ending in a newline has no empty line after it,
   as with [input_line]. *)
let rec next r =
  let e = canonical r.f r.buf r.lo r.hi in
  if e >= 0 && e < r.hi && Bytes.unsafe_get r.buf e = '\n' then begin
    r.lo <- e + 1;
    r.lines <- r.lines + 1;
    true
  end
  else
    let nl = newline r.buf r.lo r.hi in
    if nl < r.hi || (r.last && r.lo < r.hi) then begin
      let lo = r.lo in
      r.lo <- Int.min (nl + 1) r.hi;
      r.lines <- r.lines + 1;
      parse r.f r.buf lo nl || next r
    end
    else if r.last then false
    else begin
      refill r;
      next r
    end

(* One pass over a trace file: checks that times run 0, 1, 2, ... and
   hands each interaction to [f]. *)
let iter_file path f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let r = reader (input ic) in
      let count = ref 0 in
      while next r do
        if r.f.time <> !count then
          failwith
            (Printf.sprintf "Trace: line %d: expected time %d, got %d" r.lines
               !count r.f.time);
        f (Interaction.make r.f.u r.f.v);
        incr count
      done)

let load path =
  let out = Int_vec.create () in
  iter_file path (fun i -> Int_vec.push out (Interaction.to_int i));
  Sequence.of_array (Interaction.unsafe_of_ints (Int_vec.to_array out))

(* [fill] for a file read in order, holding its descriptor only for
   the read: a streamed schedule that stops early leaves no file
   open. *)
let file_blocks path =
  let offset = ref 0 in
  fun buf pos len ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        seek_in ic !offset;
        let k = input ic buf pos len in
        offset := !offset + k;
        k)

(* Streaming reader for chunked schedules: pass 1 validates the file
   and finds its interaction count and largest node id in O(1) memory;
   pass 2 is a stateful generator handing out one interaction per
   index, in order — exactly the contract of
   [Schedule.of_fun_chunked], which never rereads an index. *)
let stream path =
  let count = ref 0 and max_node = ref 0 in
  iter_file path (fun i ->
      incr count;
      if Interaction.v i > !max_node then max_node := Interaction.v i);
  let total = !count in
  let r = reader (file_blocks path) in
  let next_t = ref 0 in
  let gen t =
    if t <> !next_t then
      failwith
        (Printf.sprintf "Trace.stream: out-of-order read (expected %d, got %d)"
           !next_t t);
    if t >= total then failwith "Trace.stream: read past the end of the trace";
    if not (next r) then
      failwith
        (Printf.sprintf "Trace.stream: %s ended at interaction %d of %d" path t
           total);
    incr next_t;
    Interaction.make r.f.u r.f.v
  in
  (gen, total, !max_node)

(* One-pass generator for non-seekable inputs (pipes, sockets), where
   the two-pass [stream] reader cannot reopen the file for its
   validation pass. The caller declares the interaction count up front
   (the serve upload header does; trace files on pipes send it ahead),
   and [read] scans the next interaction line into [f] on demand —
   [false] before [length] interactions arrived is an error, named with
   how far the input got. Validation (time ordering, well-formed lines,
   node-id packing) happens as lines arrive, so a malformed tail is
   detected exactly at its line rather than up front. *)
let declared ~length f read =
  let next = ref 0 in
  fun t ->
    if t <> !next then
      failwith
        (Printf.sprintf
           "Trace.stream_lines: out-of-order read (expected %d, got %d)" !next t);
    if t >= length then
      failwith "Trace.stream_lines: read past the declared length";
    if not (read ()) then
      failwith
        (Printf.sprintf "Trace.stream_lines: input ended at interaction %d of %d"
           !next length);
    if f.time <> !next then
      failwith (Printf.sprintf "Trace: expected time %d, got %d" !next f.time);
    let i = Interaction.make f.u f.v in
    incr next;
    i

let stream_lines ~length next_line =
  let f = fields () in
  let rec read () =
    match next_line () with
    | None -> false
    | Some line ->
        parse f (Bytes.unsafe_of_string line) 0 (String.length line) || read ()
  in
  declared ~length f read

let stream_channel ~length ic =
  let r = reader (input ic) in
  declared ~length r.f (fun () -> next r)
