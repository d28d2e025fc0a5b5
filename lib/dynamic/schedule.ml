type source = Finite of Sequence.t | Generator of (int -> Interaction.t)

(* Mutable schedule: lazily materialised prefix (generators) plus a
   lazily extended index of sink meetings. Packed interactions live in
   monomorphic int buffers, so materialisation is write-barrier-free.
   The sink-meeting vectors are allocated per *touched* node on first
   meeting, so an n-node schedule whose run only ever exercises a few
   nodes near the sink costs O(touched) vectors, not O(n). *)
type live = {
  node_count : int;
  sink_id : int;
  source : source;
  buf : Int_vec.t;  (* packed materialised prefix (generators only) *)
  meets : Int_vec.t option array;
      (* per node, times of its sink interactions; [None] until the
         node's first indexed sink meeting *)
  mutable indexed : int;  (* interactions whose sink meetings are indexed *)
}

(* Double-buffered block prefetch, enabled via [chunk_prefetch]: a
   producer task (typically on a pool worker domain) decodes the *next*
   block into a spare buffer while the consumer drains the current one;
   when the consumer exhausts its block the two buffers swap and the
   next fill is queued. Exactly one fill is in flight at any moment, so
   the generator is still called exactly once per index, in increasing
   order — the producer chain merely runs up to one block ahead. *)
type fill =
  | Pf_idle  (* nothing to decode (finite schedule fully produced) *)
  | Pf_queued of { pf_base : int; pf_cap : int }  (* submitted, not started *)
  | Pf_filling  (* some domain is decoding into the spare buffer *)
  | Pf_ready of { pf_base : int; pf_len : int; pf_async : bool }
      (* spare buffer holds [pf_base .. pf_base+pf_len); [pf_async] iff
         a pool task (not the consumer stealing the job) decoded it *)
  | Pf_failed  (* the generator raised; the exception is parked below *)

type prefetch = {
  p_submit : (unit -> unit) -> unit;  (* producer-task sink (pool submit) *)
  p_now : unit -> int;  (* monotonic clock, ns (stall accounting) *)
  p_lock : Mutex.t;
  p_done : Condition.t;  (* signalled on Pf_ready / Pf_failed *)
  mutable p_buf : int array;  (* the spare buffer (same size as c_block) *)
  mutable p_fill : fill;
  mutable p_error : (exn * Printexc.raw_backtrace) option;
  mutable p_async : int;  (* blocks consumed that a pool task decoded *)
  mutable p_stalls : int;  (* consumer waits on an unfinished fill *)
  mutable p_stall_ns : int;
}

(* Streaming form: one fixed-size block of packed interactions decoded
   from the generator on demand, recycled in place as time advances.
   Memory is O(block) whatever the horizon — no prefix buffer, no
   sink-meeting index — at the price of strictly forward access. *)
type chunked = {
  c_node_count : int;
  c_sink : int;
  c_gen : int -> Interaction.t;
  c_length : int option;  (* finite horizon (streamed traces), if any *)
  mutable c_block : int array;  (* packed interactions [c_base .. c_base+c_len) *)
  mutable c_base : int;  (* time of [c_block.(0)] *)
  mutable c_len : int;  (* valid entries in the block *)
  mutable c_refills : int;  (* blocks installed as current (deterministic) *)
  mutable c_prefetch : prefetch option;
}

type t = Live of live | Chunked of chunked

let default_block = 8192

let check_interaction ~n i =
  if Interaction.v i >= n then
    invalid_arg "Schedule: interaction mentions a node id >= n"

(* Fail fast on node counts the packed encoding cannot represent: an
   interaction packs both ids into one 63-bit OCaml int as
   [(u lsl 31) lor v], so ids — and the sink-meeting index keyed by
   them — silently wrap past [Interaction.max_node_id]. *)
let check_node_count n =
  if n < 2 then invalid_arg "Schedule: need at least two nodes";
  if n - 1 > Interaction.max_node_id then
    invalid_arg
      (Printf.sprintf
         "Schedule: n = %d exceeds the packed-interaction encoding (node ids \
          take 31 of the 63 int bits, so n <= %d)"
         n
         (Interaction.max_node_id + 1))

let make ~n ~sink source =
  check_node_count n;
  if sink < 0 || sink >= n then invalid_arg "Schedule: sink out of range";
  Live
    {
      node_count = n;
      sink_id = sink;
      source;
      buf = Int_vec.create ();
      meets = Array.make n None;
      indexed = 0;
    }

let of_sequence ~n ~sink seq =
  let t = make ~n ~sink (Finite seq) in
  for time = 0 to Sequence.length seq - 1 do
    check_interaction ~n (Sequence.unsafe_get seq time)
  done;
  t

let of_fun ~n ~sink gen = make ~n ~sink (Generator gen)

let of_fun_chunked ?(block = default_block) ?length ~n ~sink gen =
  check_node_count n;
  if sink < 0 || sink >= n then invalid_arg "Schedule: sink out of range";
  if block < 1 then invalid_arg "Schedule.of_fun_chunked: block must be >= 1";
  (match length with
  | Some l when l < 0 -> invalid_arg "Schedule.of_fun_chunked: negative length"
  | _ -> ());
  Chunked
    {
      c_node_count = n;
      c_sink = sink;
      c_gen = gen;
      c_length = length;
      c_block = Array.make block (Interaction.to_int Interaction.dummy);
      c_base = 0;
      c_len = 0;
      c_refills = 0;
      c_prefetch = None;
    }

let n = function
  | Live t -> t.node_count
  | Chunked c -> c.c_node_count

let sink = function
  | Live t -> t.sink_id
  | Chunked c -> c.c_sink

let length = function
  | Live t -> (
      match t.source with
      | Finite s -> Some (Sequence.length s)
      | Generator _ -> None)
  | Chunked c -> c.c_length

let materialized = function
  | Live t -> (
      match t.source with
      | Finite s -> Sequence.length s
      | Generator _ -> Int_vec.length t.buf)
  | Chunked c -> c.c_base + c.c_len

(* The sink-meeting vector of [node], allocated on first use. *)
let meet_vec t node =
  match Array.unsafe_get t.meets node with
  | Some v -> v
  | None ->
      let v = Int_vec.create () in
      t.meets.(node) <- Some v;
      v

let ensure t upto =
  (* Materialise interactions with index < upto where possible and
     record their sink meetings, reading the backing store directly per
     source — a shared accessor here would cost a closure allocation per
     call on the materialisation hot path. *)
  let sink = t.sink_id in
  match t.source with
  | Finite s ->
      let stop = Stdlib.min upto (Sequence.length s) in
      while t.indexed < stop do
        let i = Sequence.unsafe_get s t.indexed in
        if Interaction.involves i sink then
          Int_vec.push (meet_vec t (Interaction.other i sink)) t.indexed;
        t.indexed <- t.indexed + 1
      done
  | Generator gen ->
      (* Indexed as drawn, so [indexed] is always the buffer's length.
         A cursor over a generator lands here once per step: the loop
         makes no call it does not need. *)
      for idx = Int_vec.length t.buf to upto - 1 do
        let i = gen idx in
        check_interaction ~n:t.node_count i;
        Int_vec.push t.buf (Interaction.to_int i);
        if Interaction.involves i sink then
          Int_vec.push (meet_vec t (Interaction.other i sink)) idx;
        t.indexed <- idx + 1
      done

(* Decode [cap] interactions from [base] into [buf]. Shared by the
   synchronous refill and the producer task. *)
let fill_block ~n gen buf base cap =
  for k = 0 to cap - 1 do
    let i = gen (base + k) in
    check_interaction ~n i;
    Array.unsafe_set buf k (Interaction.to_int i)
  done

(* Run whatever fill is currently queued, if any. Called both by the
   submitted pool task ([async = true]) and by the consumer when it
   would otherwise wait on a job no worker has picked up yet (the
   still-queued job is stolen and run inline, so a pool whose workers
   are all busy never deadlocks the consumer; the stale pool task then
   finds nothing queued and returns). *)
let prefetch_run_fill ~async c p =
  Mutex.lock p.p_lock;
  match p.p_fill with
  | Pf_queued { pf_base; pf_cap } -> (
      p.p_fill <- Pf_filling;
      Mutex.unlock p.p_lock;
      match fill_block ~n:c.c_node_count c.c_gen p.p_buf pf_base pf_cap with
      | () ->
          Mutex.lock p.p_lock;
          p.p_fill <- Pf_ready { pf_base; pf_len = pf_cap; pf_async = async };
          Condition.broadcast p.p_done;
          Mutex.unlock p.p_lock
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock p.p_lock;
          p.p_fill <- Pf_failed;
          p.p_error <- Some (e, bt);
          Condition.broadcast p.p_done;
          Mutex.unlock p.p_lock)
  | Pf_idle | Pf_filling | Pf_ready _ | Pf_failed -> Mutex.unlock p.p_lock

(* Queue the fill of the next undecoded block (the spare buffer is free
   by invariant: its previous contents were just swapped in, or this is
   the enabling call). *)
let prefetch_queue c p =
  let base = c.c_base + c.c_len in
  let cap =
    match c.c_length with
    | Some l -> Stdlib.min (Array.length p.p_buf) (l - base)
    | None -> Array.length p.p_buf
  in
  if cap <= 0 then begin
    Mutex.lock p.p_lock;
    p.p_fill <- Pf_idle;
    Mutex.unlock p.p_lock
  end
  else begin
    Mutex.lock p.p_lock;
    p.p_fill <- Pf_queued { pf_base = base; pf_cap = cap };
    Mutex.unlock p.p_lock;
    p.p_submit (fun () -> prefetch_run_fill ~async:true c p)
  end

(* Install the next block from the producer chain: steal the fill if no
   worker started it, wait (counting the stall) if one is mid-decode,
   then swap the buffers and queue the following fill. *)
let prefetch_advance c p =
  (match p.p_fill with
  | Pf_queued _ -> prefetch_run_fill ~async:false c p
  | Pf_idle | Pf_filling | Pf_ready _ | Pf_failed -> ());
  Mutex.lock p.p_lock;
  (match p.p_fill with
  | Pf_filling ->
      let t0 = p.p_now () in
      while p.p_fill = Pf_filling do
        Condition.wait p.p_done p.p_lock
      done;
      p.p_stalls <- p.p_stalls + 1;
      p.p_stall_ns <- p.p_stall_ns + (p.p_now () - t0)
  | Pf_idle | Pf_queued _ | Pf_ready _ | Pf_failed -> ());
  match p.p_fill with
  | Pf_ready { pf_base; pf_len; pf_async } ->
      let old = c.c_block in
      c.c_block <- p.p_buf;
      p.p_buf <- old;
      Mutex.unlock p.p_lock;
      c.c_base <- pf_base;
      c.c_len <- pf_len;
      c.c_refills <- c.c_refills + 1;
      if pf_async then p.p_async <- p.p_async + 1;
      prefetch_queue c p
  | Pf_failed ->
      let e, bt =
        match p.p_error with Some eb -> eb | None -> assert false
      in
      Mutex.unlock p.p_lock;
      Printexc.raise_with_backtrace e bt
  | Pf_idle | Pf_queued _ | Pf_filling ->
      (* [Pf_idle] needs [c_base + c_len = c_length], which the length
         guard in [chunk_advance] already rejected; the other two are
         excluded by the wait above. *)
      Mutex.unlock p.p_lock;
      assert false

(* Advance a chunked schedule so its block covers [time], decoding
   whole blocks from the generator. The block is refilled in place:
   once time moves past an entry it is gone for good, hence the
   strictly-forward contract. Decoding whole blocks means the
   generator may run up to one block ahead of the highest time read —
   still exactly once per index, in increasing order. *)
let chunk_advance ~op c time =
  if time < c.c_base then
    invalid_arg
      (Printf.sprintf
         "Schedule.%s: chunked schedules are forward-only (time %d is before \
          the current block at %d, whose entries were discarded); rewinding \
          needs a replayable schedule — rebuild without --stream, e.g. \
          of_fun or a finite prefix instead of of_fun_chunked"
         op time c.c_base);
  (match c.c_length with
  | Some l when time >= l ->
      invalid_arg
        (Printf.sprintf
           "Schedule.%s: time %d is past the end of a finite chunked \
            schedule of length %d"
           op time l)
  | _ -> ());
  while time >= c.c_base + c.c_len do
    match c.c_prefetch with
    | Some p -> prefetch_advance c p
    | None ->
        let base = c.c_base + c.c_len in
        let cap =
          match c.c_length with
          | Some l -> Stdlib.min (Array.length c.c_block) (l - base)
          | None -> Array.length c.c_block
        in
        fill_block ~n:c.c_node_count c.c_gen c.c_block base cap;
        c.c_base <- base;
        c.c_len <- cap;
        c.c_refills <- c.c_refills + 1
  done

let chunk_get ~op c time =
  chunk_advance ~op c time;
  Interaction.of_int_unchecked (Array.unsafe_get c.c_block (time - c.c_base))

let is_chunked = function Chunked _ -> true | Live _ -> false

let chunk_view sched time =
  match sched with
  | Chunked c ->
      if time < 0 then invalid_arg "Schedule.chunk_view: negative time";
      chunk_advance ~op:"chunk_view" c time;
      let off = time - c.c_base in
      (c.c_block, off, c.c_len - off)
  | Live _ -> invalid_arg "Schedule.chunk_view: not a chunked schedule"

type chunk_stats = {
  refills : int;
  prefetched : int;
  stalls : int;
  stall_ns : int;
}

let chunk_stats = function
  | Chunked c -> (
      match c.c_prefetch with
      | None ->
          { refills = c.c_refills; prefetched = 0; stalls = 0; stall_ns = 0 }
      | Some p ->
          {
            refills = c.c_refills;
            prefetched = p.p_async;
            stalls = p.p_stalls;
            stall_ns = p.p_stall_ns;
          })
  | Live _ -> { refills = 0; prefetched = 0; stalls = 0; stall_ns = 0 }

let chunk_prefetch sched ~submit ~now =
  match sched with
  | Chunked c -> (
      match c.c_prefetch with
      | Some _ -> ()  (* already pipelined; keep the running producer chain *)
      | None ->
          let p =
            {
              p_submit = submit;
              p_now = now;
              p_lock = Mutex.create ();
              p_done = Condition.create ();
              p_buf =
                Array.make (Array.length c.c_block)
                  (Interaction.to_int Interaction.dummy);
              p_fill = Pf_idle;
              p_error = None;
              p_async = 0;
              p_stalls = 0;
              p_stall_ns = 0;
            }
          in
          c.c_prefetch <- Some p;
          prefetch_queue c p)
  | Live _ -> invalid_arg "Schedule.chunk_prefetch: not a chunked schedule"

let get sched time =
  if time < 0 then invalid_arg "Schedule.get: negative time";
  match sched with
  | Live t -> (
      match t.source with
      | Finite s ->
          if time < Sequence.length s then Some (Sequence.get s time) else None
      | Generator _ ->
          ensure t (time + 1);
          Some (Interaction.of_int_unchecked (Int_vec.get t.buf time)))
  | Chunked c -> (
      match c.c_length with
      | Some l when time >= l -> None
      | _ -> Some (chunk_get ~op:"get" c time))

(* Allocation-free variant of [get]: the engine's hot loop calls this
   once per interaction, so no option wrapper. *)
let get_exn sched time =
  if time < 0 then invalid_arg "Schedule.get_exn: negative time";
  match sched with
  | Live t -> (
      match t.source with
      | Finite s ->
          if time < Sequence.length s then Sequence.get s time
          else invalid_arg "Schedule.get_exn: past the end of a finite schedule"
      | Generator _ ->
          ensure t (time + 1);
          Interaction.of_int_unchecked (Int_vec.get t.buf time))
  | Chunked c -> chunk_get ~op:"get_exn" c time

let backing = function
  | Live { source = Finite s; _ } -> Some s
  | Live { source = Generator _; _ } | Chunked _ -> None

(* The one forward read path of the run-cores. A kernel reads [I_t] as
   [blk.(t - base)] while [t < hi] and calls [advance] otherwise, so
   the per-step cost is one compare and one load on every form; only a
   block change calls in here. *)
type cursor = {
  src : t;
  mutable blk : Interaction.t array;
  mutable base : int;
  mutable hi : int;
}

let cursor sched = { src = sched; blk = [||]; base = 0; hi = 0 }

let advance cur time =
  if time < 0 then invalid_arg "Schedule.advance: negative time";
  match cur.src with
  | Live ({ source = Generator _; buf; _ } as l) ->
      (* Materialise exactly as far as [time], as [get] would. The
         buffer only grows, by moving to a larger array once the old
         one is full, so every index an older array holds is final:
         the view is re-pointed only when [time] lies past it — a
         pointer store on every step costs a write barrier. *)
      ensure l (time + 1);
      if time >= Array.length cur.blk then
        cur.blk <- Interaction.unsafe_of_ints (Int_vec.unsafe_data buf);
      cur.hi <- Int.min (Int_vec.length buf) (Array.length cur.blk)
  | Live { source = Finite s; _ } ->
      if time >= Sequence.length s then
        invalid_arg "Schedule.advance: past the end of a finite schedule";
      cur.blk <- Sequence.unsafe_array s;
      cur.hi <- Sequence.length s
  | Chunked c ->
      (* Under prefetch [chunk_advance] swaps the buffers; the view
         moves to the new block before anything reads again, so the
         spare buffer the producer refills is never the one shown. *)
      chunk_advance ~op:"advance" c time;
      cur.blk <- Interaction.unsafe_of_ints c.c_block;
      cur.base <- c.c_base;
      cur.hi <- c.c_base + c.c_len

let prefix sched k =
  if k < 0 then invalid_arg "Schedule.prefix: negative length";
  (match length sched with
  | Some len when len < k -> invalid_arg "Schedule.prefix: schedule too short"
  | _ -> ());
  match sched with
  | Live { source = Finite s; _ } ->
      if k = Sequence.length s then s else Sequence.sub s ~pos:0 ~len:k
  | Live t ->
      ensure t k;
      Sequence.of_array
        (Interaction.unsafe_of_ints (Array.sub (Int_vec.unsafe_data t.buf) 0 k))
  | Chunked _ ->
      invalid_arg
        "Schedule.prefix: chunked schedules keep no prefix (use of_fun for \
         offline analysis)"

(* First index in the sorted vector [v] whose value exceeds [x], or
   [Int_vec.length v] if none. *)
let first_above v x =
  let lo = ref 0 and hi = ref (Int_vec.length v) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int_vec.get v mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let no_meet_index which =
  invalid_arg
    (Printf.sprintf
       "Schedule.%s: chunked schedules keep no sink-meeting index (meet-time \
        knowledge needs of_fun or a finite prefix)"
       which)

(* Interactions a meet search indexes per round when it has to extend a
   live schedule: large enough to amortise the call, small enough not
   to run far past the meet it is looking for. *)
let meet_chunk = 512

let next_meet_with_sink sched ~node ~after ~limit =
  let count = n sched in
  if node < 0 || node >= count then
    invalid_arg "Schedule.next_meet_with_sink: node out of range";
  if node = sink sched then begin
    let candidate = after + 1 in
    if candidate <= limit then Some candidate else None
  end
  else
    match sched with
    | Chunked _ -> no_meet_index "next_meet_with_sink"
    | Live t ->
        (* Lazy search: meets are indexed in time order, so the first
           indexed meet past [after] is the one a fully indexed schedule
           would report. Until one is indexed, index [meet_chunk] more
           interactions, never past [limit + 1] (policies probe with
           limits far beyond where their runs end). The node's vector
           may appear in any round, so it is read again each time. A
           plain loop over refs: no closure, no allocation per probe. *)
        let found = ref (-1) and searching = ref true in
        while !searching do
          (match Array.unsafe_get t.meets node with
          | Some v ->
              let pos = first_above v after in
              if pos < Int_vec.length v then begin
                found := Int_vec.get v pos;
                searching := false
              end
          | None -> ());
          if !searching then begin
            let indexed = t.indexed in
            if indexed > limit then searching := false
            else begin
              ensure t (Int.min (limit + 1) (indexed + meet_chunk));
              (* A finite source stops growing at its end. *)
              if t.indexed = indexed then searching := false
            end
          end
        done;
        if !found >= 0 && !found <= limit then Some !found else None

let meets_with_sink_upto sched k =
  let count = n sched and sink_id = sink sched in
  let counts = Array.make count 0 in
  (match sched with
  | Chunked _ -> no_meet_index "meets_with_sink_upto"
  | Live t ->
      ensure t k;
      for node = 0 to count - 1 do
        if node <> sink_id then
          counts.(node) <-
            (match t.meets.(node) with
            | None -> 0
            | Some v -> first_above v (k - 1))
      done);
  counts.(sink_id) <- Array.fold_left ( + ) 0 counts;
  counts
