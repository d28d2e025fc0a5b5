module Int_vec = Doda_dynamic.Int_vec

type transmission = { time : int; sender : int; receiver : int }

type t = {
  times : Int_vec.t;
  senders : Int_vec.t;
  receivers : Int_vec.t;
  (* Derived per-node views, computed lazily and cached. The log only
     grows, so (n, length) identifies a computation exactly. *)
  mutable derived_n : int;
  mutable derived_len : int;
  mutable fire_cache : int array;
  mutable parent_cache : int array;
}

let create ?capacity () =
  {
    times = Int_vec.create ?capacity ();
    senders = Int_vec.create ?capacity ();
    receivers = Int_vec.create ?capacity ();
    derived_n = -1;
    derived_len = -1;
    fire_cache = [||];
    parent_cache = [||];
  }

let length t = Int_vec.length t.times

let add t ~time ~sender ~receiver =
  Int_vec.push t.times time;
  Int_vec.push t.senders sender;
  Int_vec.push t.receivers receiver

let time t i = Int_vec.get t.times i
let sender t i = Int_vec.get t.senders i
let receiver t i = Int_vec.get t.receivers i
let get t i = { time = time t i; sender = sender t i; receiver = receiver t i }

let iter f t =
  for i = 0 to length t - 1 do
    f ~time:(Int_vec.get t.times i) ~sender:(Int_vec.get t.senders i)
      ~receiver:(Int_vec.get t.receivers i)
  done

let to_list t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    acc := get t i :: !acc
  done;
  !acc

let of_list l =
  let t = create () in
  List.iter (fun { time; sender; receiver } -> add t ~time ~sender ~receiver) l;
  t

let refresh t ~n =
  if t.derived_n <> n || t.derived_len <> length t then begin
    let fire = Array.make n (-1) and parent = Array.make n (-1) in
    for i = 0 to length t - 1 do
      let s = Int_vec.get t.senders i in
      if s >= 0 && s < n then begin
        fire.(s) <- Int_vec.get t.times i;
        parent.(s) <- Int_vec.get t.receivers i
      end
    done;
    t.derived_n <- n;
    t.derived_len <- length t;
    t.fire_cache <- fire;
    t.parent_cache <- parent
  end

let fire_times t ~n =
  refresh t ~n;
  t.fire_cache

let parents t ~n =
  refresh t ~n;
  t.parent_cache
