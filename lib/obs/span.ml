(* Monotonic-clock spans in a fixed-capacity ring of parallel arrays.

   A sink never allocates per event once created: names, start offsets,
   durations and domain ids live in preallocated arrays and the ring
   overwrites its oldest entry when full (counting drops). Timestamps
   are nanoseconds from [Monotonic_clock] (CLOCK_MONOTONIC), stored
   relative to the sink's creation epoch so they fit comfortably in an
   OCaml int and export cleanly to trace viewers.

   The disabled sink ([null]) makes [with_span] a single branch around
   the wrapped call, matching the metrics design. Shards for worker
   domains share the parent's clock and epoch so absorbed events stay
   on one timeline. *)

let default_clock () = Int64.to_int (Monotonic_clock.now ())

type t = {
  on : bool;
  capacity : int;
  clock : unit -> int;
  epoch : int;
  names : string array;
  starts : int array; (* ns since epoch *)
  durs : int array; (* ns; -1 marks an instant event *)
  tids : int array; (* recording domain id *)
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

type span = { sp_name : string; sp_start : int }

let null =
  {
    on = false;
    capacity = 0;
    clock = (fun () -> 0);
    epoch = 0;
    names = [||];
    starts = [||];
    durs = [||];
    tids = [||];
    head = 0;
    len = 0;
    dropped = 0;
  }

let create ?(capacity = 4096) ?clock () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  let clock = match clock with Some c -> c | None -> default_clock in
  {
    on = true;
    capacity;
    clock;
    epoch = clock ();
    names = Array.make capacity "";
    starts = Array.make capacity 0;
    durs = Array.make capacity 0;
    tids = Array.make capacity 0;
    head = 0;
    len = 0;
    dropped = 0;
  }

let enabled t = t.on
let length t = t.len
let dropped t = t.dropped

let shard t =
  if not t.on then t
  else
    {
      t with
      names = Array.make t.capacity "";
      starts = Array.make t.capacity 0;
      durs = Array.make t.capacity 0;
      tids = Array.make t.capacity 0;
      head = 0;
      len = 0;
      dropped = 0;
    }

let push t ~tid name start dur =
  let i = t.head in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.durs.(i) <- dur;
  t.tids.(i) <- tid;
  t.head <- (if i + 1 = t.capacity then 0 else i + 1);
  if t.len < t.capacity then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let self_tid () = (Domain.self () :> int)
let off_span = { sp_name = ""; sp_start = 0 }

let begin_span t name =
  if not t.on then off_span else { sp_name = name; sp_start = t.clock () }

let end_span t sp =
  if t.on then
    push t ~tid:(self_tid ()) sp.sp_name (sp.sp_start - t.epoch)
      (t.clock () - sp.sp_start)

let with_span t name f =
  if not t.on then f ()
  else begin
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        push t ~tid:(self_tid ()) name (t0 - t.epoch) (t.clock () - t0))
      f
  end

let instant t name =
  if t.on then push t ~tid:(self_tid ()) name (t.clock () - t.epoch) (-1)

type event = { name : string; start_ns : int; dur_ns : int; tid : int }

let is_instant e = e.dur_ns < 0

let events t =
  List.init t.len (fun k ->
      let i = (((t.head - t.len + k) mod t.capacity) + t.capacity) mod t.capacity in
      {
        name = t.names.(i);
        start_ns = t.starts.(i);
        dur_ns = t.durs.(i);
        tid = t.tids.(i);
      })

(* Append [child]'s events (oldest first) into [parent], keeping the
   recorded domain ids and timestamps. Meaningful when [child] was
   produced by [shard parent] — the epochs then coincide, so all
   events share one timeline. *)
let absorb parent child =
  if parent.on && child.on && child != parent then begin
    List.iter
      (fun e -> push parent ~tid:e.tid e.name e.start_ns e.dur_ns)
      (events child);
    parent.dropped <- parent.dropped + child.dropped
  end

let summary t =
  if not t.on then ""
  else begin
    let tbl : (string, int ref * int ref * int ref * bool) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun e ->
        let inst = is_instant e in
        match Hashtbl.find_opt tbl e.name with
        | Some (calls, total, mx, _) ->
            Stdlib.incr calls;
            if not inst then begin
              total := !total + e.dur_ns;
              if e.dur_ns > !mx then mx := e.dur_ns
            end
        | None ->
            Hashtbl.add tbl e.name
              ( ref 1,
                ref (if inst then 0 else e.dur_ns),
                ref (if inst then 0 else e.dur_ns),
                inst ))
      (events t);
    let names =
      List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
    in
    let buf = Buffer.create 256 in
    let ms ns = float_of_int ns /. 1e6 in
    List.iter
      (fun name ->
        let calls, total, mx, inst = Hashtbl.find tbl name in
        if inst then
          Buffer.add_string buf
            (Printf.sprintf "instant    %-32s count=%d\n" name !calls)
        else
          Buffer.add_string buf
            (Printf.sprintf
               "span       %-32s calls=%d total=%.3fms mean=%.3fms max=%.3fms\n"
               name !calls (ms !total)
               (ms !total /. float_of_int !calls)
               (ms !mx)))
      names;
    if t.dropped > 0 then
      Buffer.add_string buf
        (Printf.sprintf "(ring full: %d oldest events dropped)\n" t.dropped);
    Buffer.contents buf
  end
