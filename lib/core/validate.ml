module Sequence = Doda_dynamic.Sequence
module Interaction = Doda_dynamic.Interaction

type violation =
  | Out_of_order of int
  | Bad_time of int
  | Wrong_interaction of int
  | Sender_without_data of int
  | Receiver_without_data of int
  | Sink_transmitted of int
  | Duplicate_sender of int
  | Uninformative of int

let pp_violation ppf v =
  let p fmt = Format.fprintf ppf fmt in
  match v with
  | Out_of_order i -> p "transmission #%d out of time order" i
  | Bad_time i -> p "transmission #%d outside the sequence" i
  | Wrong_interaction i -> p "transmission #%d does not match I_t" i
  | Sender_without_data i -> p "transmission #%d: sender already transmitted" i
  | Receiver_without_data i -> p "transmission #%d: receiver already transmitted" i
  | Sink_transmitted i -> p "transmission #%d: sink as sender" i
  | Duplicate_sender i -> p "transmission #%d: sender transmits twice" i
  | Uninformative i -> p "transfer #%d taught the receiver nothing" i

let execution ~n ~sink s (log : Run_log.t) =
  let len = Run_log.length log in
  let holds = Array.make n true in
  (* Earliest time at which each node appears as a sender anywhere in
     the log — one pass, so the duplicate-sender check below is O(1)
     per entry instead of a scan of the whole log. *)
  let first_fire = Array.make n max_int in
  for idx = 0 to len - 1 do
    let sender = Run_log.sender log idx in
    if sender >= 0 && sender < n then
      first_fire.(sender) <- Stdlib.min first_fire.(sender) (Run_log.time log idx)
  done;
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  let previous_time = ref (-1) in
  let slen = Sequence.length s in
  for idx = 0 to len - 1 do
    let time = Run_log.time log idx
    and sender = Run_log.sender log idx
    and receiver = Run_log.receiver log idx in
    if time <= !previous_time then flag (Out_of_order idx);
    previous_time := Stdlib.max !previous_time time;
    if time < 0 || time >= slen then flag (Bad_time idx)
    else begin
      let i = Sequence.get s time in
      if
        not
          (Interaction.involves i sender
          && Interaction.involves i receiver
          && sender <> receiver)
      then flag (Wrong_interaction idx)
    end;
    if sender = sink then flag (Sink_transmitted idx);
    if sender >= 0 && sender < n then begin
      if not holds.(sender) then flag (Sender_without_data idx);
      (* A sender without data is also a duplicate if it appeared as
         sender at a strictly earlier time; distinguish for clearer
         reports. *)
      if first_fire.(sender) < time && not holds.(sender) then
        flag (Duplicate_sender idx)
    end;
    if receiver >= 0 && receiver < n && not holds.(receiver) then
      flag (Receiver_without_data idx);
    if sender >= 0 && sender < n then holds.(sender) <- false
  done;
  List.rev !violations

let complete ~n ~sink s (log : Run_log.t) =
  execution ~n ~sink s log = []
  && Run_log.length log = n - 1
  &&
  let sent = Array.make n false in
  for idx = 0 to Run_log.length log - 1 do
    sent.(Run_log.sender log idx) <- true
  done;
  let all = ref true in
  for v = 0 to n - 1 do
    if v <> sink && not sent.(v) then all := false
  done;
  !all

(* ------------------------------------------------------------------ *)
(* Gossip (dissemination) validation: replay the informative-transfer
   log over per-token knowledge sets. A [Gossip] run logs a transfer
   only when the receiver learns at least one new token, and knowledge
   only changes on logged transfers, so replaying the log alone
   reconstructs every node's knowledge exactly. *)

let gossip ~n ~problem s (log : Run_log.t) =
  let planes = Bit_planes.tokens problem ~n in
  let len = Run_log.length log in
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  let previous_time = ref (-1) in
  let slen = Sequence.length s in
  for idx = 0 to len - 1 do
    let time = Run_log.time log idx
    and sender = Run_log.sender log idx
    and receiver = Run_log.receiver log idx in
    (* Two transfers of one interaction (one per direction) share a
       time, so only strictly decreasing times are out of order. *)
    if time < !previous_time then flag (Out_of_order idx);
    previous_time := Stdlib.max !previous_time time;
    if time < 0 || time >= slen then flag (Bad_time idx)
    else begin
      let i = Sequence.get s time in
      if
        not
          (Interaction.involves i sender
          && Interaction.involves i receiver
          && sender <> receiver)
      then flag (Wrong_interaction idx)
    end;
    if
      sender >= 0 && sender < n && receiver >= 0 && receiver < n
      && not (Bit_planes.absorb planes ~dst:receiver ~src:sender)
    then flag (Uninformative idx)
  done;
  List.rev !violations

let gossip_complete ~n ~problem s log =
  gossip ~n ~problem s log = []
  &&
  let planes = Bit_planes.tokens problem ~n in
  Run_log.iter
    (fun ~time:_ ~sender ~receiver ->
      if sender >= 0 && sender < n && receiver >= 0 && receiver < n then
        ignore (Bit_planes.absorb planes ~dst:receiver ~src:sender))
    log;
  let all = ref true in
  for v = 0 to n - 1 do
    if not (Bit_planes.is_full planes v) then all := false
  done;
  !all

let problem p ~n s log =
  match p with
  | Problem.Aggregation { sink } -> execution ~n ~sink s log
  | Problem.Dissemination _ -> gossip ~n ~problem:p s log

let plan ~n ~sink s (p : Convergecast.plan) =
  let entries = ref [] in
  for v = 0 to n - 1 do
    if v <> sink && p.Convergecast.fire_time.(v) >= 0 then
      entries :=
        {
          Run_log.time = p.Convergecast.fire_time.(v);
          sender = v;
          receiver = p.Convergecast.fire_to.(v);
        }
        :: !entries
  done;
  let chronological =
    List.sort
      (fun (a : Run_log.transmission) b -> Int.compare a.time b.time)
      !entries
  in
  execution ~n ~sink s (Run_log.of_list chronological)
