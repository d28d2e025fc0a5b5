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

(* The fields of the last interaction line scanned. The scanner writes
   here instead of returning a tuple, so a canonical line allocates
   nothing. [num] is the value of the last run of digits read. *)
type fields = {
  mutable time : int;
  mutable u : int;
  mutable v : int;
  mutable num : int;
}

let fields () = { time = 0; u = 0; v = 0; num = 0 }

(* --- The canonical scan, eight bytes at a time ---------------------- *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The 8 bytes at [i], the byte at [i] lowest, on any host. *)
let[@inline always] load_le b i =
  if Sys.big_endian then bswap64 (get64u b i) else get64u b i

(* The word of the 8 bytes at [i], with every byte at or past [hi]
   read as 0, which is neither a digit nor a space. Reads no byte
   outside [b]: where 8 bytes at [i] would cross its end (a string line
   has no slack after it), the word is loaded to end at [hi] and
   shifted down, or, in a string shorter than a word, put together a
   byte at a time. *)
let[@inline always] word b i hi =
  let n = hi - i in
  if n >= 8 then load_le b i
  else if n <= 0 then 0L
  else if i + 8 <= Bytes.length b then
    Int64.logand (load_le b i) (Int64.pred (Int64.shift_left 1L (8 * n)))
  else if hi >= 8 then
    Int64.shift_right_logical (load_le b (hi - 8)) (64 - (8 * n))
  else begin
    let w = ref 0 in
    for j = hi - 1 downto i do
      w := (!w lsl 8) lor Char.code (Bytes.unsafe_get b j)
    done;
    Int64.of_int !w
  end

(* The number of bytes at the low end of a word before the first one
   flagged in [m], which holds the top bit of each flagged byte and is
   not 0. That byte's lowest bit, [2^(8k)], shifts the byte [k] of the
   multiplier into the top byte of the product. *)
let[@inline always] before m =
  Int64.to_int
    (Int64.shift_right_logical
       (Int64.mul
          (Int64.shift_right_logical (Int64.logand m (Int64.neg m)) 7)
          0x0001020304050607L)
       56)

(* Flags the bytes of [w] that are not decimal digits: [b lxor '0'] is
   below 10 exactly for a digit, and adding 0x76 to its low 7 bits
   sets the top bit of every other byte without carrying out of it. *)
let[@inline always] non_digits w =
  let t = Int64.logxor w 0x3030303030303030L in
  Int64.logand
    (Int64.logor
       (Int64.add (Int64.logand t 0x7F7F7F7F7F7F7F7FL) 0x7676767676767676L)
       t)
    0x8080808080808080L

(* Flags the bytes of [w] that are not spaces, the same way. *)
let[@inline always] non_spaces w =
  let t = Int64.logxor w 0x2020202020202020L in
  Int64.logand
    (Int64.logor
       (Int64.add (Int64.logand t 0x7F7F7F7F7F7F7F7FL) 0x7F7F7F7F7F7F7F7FL)
       t)
    0x8080808080808080L

(* The value of the [k] (1 to 8) digits at the low end of [w], the
   first the most significant. Shifted to the top of the word, they
   read as 8 digits after [8 - k] zeros; three multiplies then merge
   neighbouring lanes of 1, 2 and 4 digits. *)
let[@inline always] value w k =
  let d = Int64.shift_left (Int64.logand w 0x0F0F0F0F0F0F0F0FL) (64 - (8 * k)) in
  let d = Int64.shift_right_logical (Int64.mul d 2561L) 8 in
  let d =
    Int64.shift_right_logical
      (Int64.mul (Int64.logand d 0x00FF00FF00FF00FFL) 6553601L)
      16
  in
  Int64.to_int
    (Int64.shift_right_logical
       (Int64.mul (Int64.logand d 0x0000FFFF0000FFFFL) 42949672960001L)
       32)

(* The end of the run of spaces at [i]. No space or one, as between
   the fields of a generated trace, is told by a byte or two; a longer
   run is skipped a word at a time. Loops, not calls, so that the scan
   keeps its values in registers. *)
let[@inline always] spaces b i hi =
  if i < hi && Bytes.unsafe_get b i = ' ' then
    if i + 1 < hi && Bytes.unsafe_get b (i + 1) = ' ' then begin
      let i = ref (i + 2) in
      while non_spaces (word b !i hi) = 0L do
        i := !i + 8
      done;
      !i + before (non_spaces (word b !i hi))
    end
    else i + 1
  else i

let pow10 = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

(* Reads the run of decimal digits at [i] into [f.num] and returns its
   end; -1 when the run is empty or longer than 18 digits. Eighteen
   digits never overflow an int, and [int_of_string] reads them to the
   same value. A run of at most 7 digits, the usual field, takes one
   word. *)
let[@inline always] digits f b i hi =
  let w = word b i hi in
  let m = non_digits w in
  if m <> 0L then begin
    let k = before m in
    if k = 0 then -1
    else begin
      f.num <- value w k;
      i + k
    end
  end
  else begin
    (* A third whole word of digits is past 18 digits: its overflowed
       value is never stored. *)
    let i = ref (i + 8) and n = ref 8 and acc = ref (value w 8) in
    while !n < 24 && non_digits (word b !i hi) = 0L do
      acc := (!acc * 100_000_000) + value (word b !i hi) 8;
      i := !i + 8;
      n := !n + 8
    done;
    let w = word b !i hi in
    let k = before (non_digits w) in
    if !n + k > 18 then -1
    else begin
      f.num <- (if k = 0 then !acc else (!acc * Array.unsafe_get pow10 k) + value w k);
      !i + k
    end
  end

(* The canonical prefix of [b.[lo, hi)]: spaces, three fields of 1 to
   18 decimal digits separated by spaces, spaces. Stores the fields in
   [f] and returns the index just past the prefix, or -1 when [b] does
   not start that way. On a line that is exactly this prefix the
   reference grammar reads the same three values. *)
let canonical f b lo hi =
  let t1 = digits f b (spaces b lo hi) hi in
  if t1 < 0 then -1
  else
    let time = f.num in
    let u0 = spaces b t1 hi in
    let u1 = if u0 > t1 then digits f b u0 hi else -1 in
    if u1 < 0 then -1
    else
      let u = f.num in
      let v0 = spaces b u1 hi in
      let v1 = if v0 > u1 then digits f b v0 hi else -1 in
      if v1 < 0 then -1
      else begin
        f.time <- time;
        f.u <- u;
        f.v <- f.num;
        spaces b v1 hi
      end

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

(* --- The block reader ------------------------------------------------ *)

let rec newline b i hi =
  if i < hi && Bytes.unsafe_get b i <> '\n' then newline b (i + 1) hi else i

(* Lines are spans of one buffer refilled from the input by [fill],
   which follows [input]'s contract (0 at the end of the input). A
   canonical line is parsed in the same pass that finds its newline;
   only other lines are copied out for [reference]. *)
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
let max_line = 1 lsl 20

exception Too_long

let too_long line =
  Printf.sprintf "Trace: line %d: longer than %d bytes" line max_line

let reader fill =
  { buf = Bytes.create block; lo = 0; hi = 0; last = false; lines = 0; fill;
    f = fields () }

(* Moves the unscanned tail, which holds no whole line, to the front
   and reads after it. A line longer than the buffer doubles it, up to
   room for [max_line] bytes and the newline.
   @raise Too_long on a line that does not fit even then. *)
let refill r =
  let tail = r.hi - r.lo in
  if tail = Bytes.length r.buf then begin
    if tail > max_line then raise Too_long;
    let buf = Bytes.create (Int.min (2 * tail) (max_line + 1)) in
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

(* [next] on a reader whose first line is its input's first line, so
   that [r.lines] numbers a line that is too long. *)
let next_from_start r =
  try next r with Too_long -> failwith (too_long (r.lines + 1))

(* --- Validating scans over byte ranges ------------------------------- *)

(* What the first failing line of a range did; [raise_at] words it
   once the line's number in the file is known. *)
type failure =
  | Malformed of string
  | Gap of { expected : int; got : int }
  | Long
  | Pair of string

let raise_at line = function
  | Malformed msg -> failwith msg
  | Gap { expected; got } ->
      failwith
        (Printf.sprintf "Trace: line %d: expected time %d, got %d" line
           expected got)
  | Long -> failwith (too_long line)
  | Pair msg -> invalid_arg msg

(* A range of the file, read up to its first failing line. Line
   numbers count from the range's start; [first] is 0 when no
   interaction line was read. *)
type range = {
  count : int;  (* interaction lines *)
  lines : int;  (* physical lines *)
  max_node : int;
  first : int;  (* the first interaction line *)
  first_time : int;  (* its time *)
  failed : (int * failure) option;  (* the first failing line *)
}

(* One pass over the bytes [lo, hi) of [path], which start a line:
   every interaction line's time must follow the range's first one by
   its place. The range's interactions are written to [dst.(at)] ...
   [dst.(at + slot - 1)], and any past [slot] only counted. *)
let scan path ~lo ~hi dst ~at ~slot =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic lo;
      let left = ref (hi - lo) in
      let r =
        reader (fun buf pos len ->
            let k = input ic buf pos (Int.min len !left) in
            left := !left - k;
            k)
      in
      let f = r.f in
      let count = ref 0 and max_node = ref 0 in
      let first = ref 0 and first_time = ref 0 and failed = ref None in
      (* One handler for the whole pass: [Exit] after a time gap, and
         the failures of [next] and [Interaction.make]. *)
      (try
         while next r do
           if !first = 0 then begin
             first := r.lines;
             first_time := f.time
           end;
           let expected = !first_time + !count in
           if f.time <> expected then begin
             failed := Some (r.lines, Gap { expected; got = f.time });
             raise Exit
           end;
           let i = Interaction.make f.u f.v in
           if !count < slot then
             Array.unsafe_set dst (at + !count) (Interaction.to_int i);
           incr count;
           if Interaction.v i > !max_node then max_node := Interaction.v i
         done
       with
      | Exit -> ()
      | Failure msg -> failed := Some (r.lines, Malformed msg)
      | Too_long -> failed := Some (r.lines + 1, Long)
      | Invalid_argument msg -> failed := Some (r.lines, Pair msg));
      { count = !count; lines = r.lines; max_node = !max_node; first = !first;
        first_time = !first_time; failed = !failed })

(* The whole file's interaction count and largest node from its ranges
   in file order, or the failure of its first bad line, numbered in the
   file. A range's first interaction must carry the count of the ranges
   before it; a range stops at its first failure, which is never before
   its first interaction, and the time is checked before the pair. *)
let combine ranges =
  let count = ref 0 and lines = ref 0 and max_node = ref 0 in
  Array.iter
    (fun r ->
      if r.first > 0 && r.first_time <> !count then
        raise_at (!lines + r.first) (Gap { expected = !count; got = r.first_time });
      Option.iter (fun (line, why) -> raise_at (!lines + line) why) r.failed;
      count := !count + r.count;
      lines := !lines + r.lines;
      max_node := Int.max !max_node r.max_node)
    ranges;
  (!count, !max_node)

(* [f] over [xs], the first on this domain and each other on a domain
   of its own; every domain is joined before the first exception, in
   [xs]' order, is re-raised. *)
let across_domains f xs =
  let catch g = match g () with v -> Ok v | exception e -> Error e in
  let others =
    Array.map
      (fun x -> Domain.spawn (fun () -> f x))
      (Array.sub xs 1 (Array.length xs - 1))
  in
  let first = catch (fun () -> f xs.(0)) in
  Array.map
    (function Ok v -> v | Error e -> raise e)
    (Array.append [| first |]
       (Array.map (fun d -> catch (fun () -> Domain.join d)) others))

(* The start of the first line at or after byte [p] of [ic], which is
   [len] bytes long: just past the first newline at or after byte
   [p - 1]. The search gives up once the line is longer than
   [max_line], which its range then reports, and cuts at the end. *)
let line_start ic len p =
  if p <= 0 then 0
  else begin
    seek_in ic (p - 1);
    let rec go q =
      if q >= len || q - p > max_line then len
      else
        match input_char ic with
        | '\n' -> q + 1
        | _ -> go (q + 1)
        | exception End_of_file -> len
    in
    go (p - 1)
  end

(* [path] cut into non-empty byte ranges (one empty range for an empty
   file) at [offsets len], [len] its length, each offset moved to the
   start of its next line. A pipe cannot be sized, nor read twice. *)
let ranges path offsets =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len =
        try in_channel_length ic
        with Sys_error msg ->
          failwith (Printf.sprintf "Trace: %s is not a regular file (%s)" path msg)
      in
      let rec spans = function
        | lo :: (hi :: _ as rest) -> (lo, hi) :: spans rest
        | _ -> []
      in
      match
        spans
          (List.sort_uniq compare
             (0 :: len :: List.map (line_start ic len) (offsets len)))
      with
      | [] -> [| (0, 0) |]
      | l -> Array.of_list l)

(* The validating pass of [path] cut at [offsets], its ranges across
   domains. *)
let validate path offsets =
  let spans = ranges path offsets in
  let scanned =
    across_domains (fun (lo, hi) -> scan path ~lo ~hi [||] ~at:0 ~slot:0) spans
  in
  let count, max_node = combine scanned in
  (spans, scanned, count, max_node)

(* Validates, then fills one array of the counted length range by
   range, each on the domain that validated it. A range that reads
   otherwise the second time (the file changed) fails the load, its
   writes kept to its own slots. *)
let load_ranges path offsets =
  let spans, scanned, count, _ = validate path offsets in
  let dst = Array.make count 0 in
  let at = Array.make (Array.length spans) 0 in
  for k = 1 to Array.length spans - 1 do
    at.(k) <- at.(k - 1) + scanned.(k - 1).count
  done;
  let filled =
    across_domains
      (fun k ->
        let lo, hi = spans.(k) in
        scan path ~lo ~hi dst ~at:at.(k) ~slot:scanned.(k).count)
      (Array.init (Array.length spans) Fun.id)
  in
  if filled <> scanned then
    failwith (Printf.sprintf "Trace: %s changed while it was read" path);
  Sequence.of_array (Interaction.unsafe_of_ints dst)

(* Below [min_range] bytes a range costs more to hand to a domain than
   it saves, and domains past the recommended count only wait for a
   core (or, past the runtime's limit, cannot be spawned). *)
let min_range = 1 lsl 20

let load ?(jobs = 1) path =
  load_ranges path (fun len ->
      let domains = Int.min jobs (Domain.recommended_domain_count ()) in
      let k = Int.max 1 (Int.min domains (len / min_range)) in
      List.init (k - 1) (fun i -> (i + 1) * len / k))

let load_split path offsets = load_ranges path (fun _ -> offsets)

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

(* Streaming reader for chunked schedules: the validating pass, on
   this domain, finds the interaction count and largest node id in
   O(1) memory; then a stateful generator hands out one interaction
   per index, in order — exactly the contract of
   [Schedule.of_fun_chunked], which never rereads an index. *)
let stream path =
  let _, _, total, max_node = validate path (fun _ -> []) in
  let r = reader (file_blocks path) in
  let next_t = ref 0 in
  let gen t =
    if t <> !next_t then
      failwith
        (Printf.sprintf "Trace.stream: out-of-order read (expected %d, got %d)"
           !next_t t);
    if t >= total then failwith "Trace.stream: read past the end of the trace";
    if not (next_from_start r) then
      failwith
        (Printf.sprintf "Trace.stream: %s ended at interaction %d of %d" path t
           total);
    incr next_t;
    Interaction.make r.f.u r.f.v
  in
  (gen, total, max_node)

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
  declared ~length r.f (fun () -> next_from_start r)
