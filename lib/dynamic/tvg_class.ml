module Prng = Doda_prng.Prng
module Static_graph = Doda_graph.Static_graph
module Traversal = Doda_graph.Traversal
module Graph_gen = Doda_graph.Graph_gen

type t =
  | Temporal
  | T_interval of int
  | Recurrent
  | Bounded_recurrent of int

let to_string = function
  | Temporal -> "temporal"
  | T_interval w -> Printf.sprintf "t-interval:%d" w
  | Recurrent -> "recurrent"
  | Bounded_recurrent b -> Printf.sprintf "bounded-recurrent:%d" b

let syntax = "temporal | t-interval:W | recurrent | bounded-recurrent:B"

let parse s =
  let positive name v =
    match int_of_string_opt v with
    | Some x when x >= 1 -> Ok x
    | Some _ -> Error (Printf.sprintf "%s must be >= 1, got %s" name v)
    | None -> Error (Printf.sprintf "%s is not an integer in %S" name s)
  in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "temporal" -> Ok Temporal
      | "recurrent" -> Ok Recurrent
      | _ -> Error (Printf.sprintf "unknown TVG class %S (expected %s)" s syntax)
      )
  | Some i -> (
      let head = String.sub s 0 i
      and arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "t-interval" -> Result.map (fun w -> T_interval w) (positive "window" arg)
      | "bounded-recurrent" ->
          Result.map (fun b -> Bounded_recurrent b) (positive "bound" arg)
      | _ -> Error (Printf.sprintf "unknown TVG class %S (expected %s)" s syntax)
      )

type witness =
  | Unreachable of { src : int; dst : int }
  | Disconnected_window of { start : int; len : int }
  | Vanished_edge of { u : int; v : int; last_seen : int }
  | Edge_gap of { u : int; v : int; gap_start : int; gap_end : int }

let pp_witness ppf w =
  let p fmt = Format.fprintf ppf fmt in
  match w with
  | Unreachable { src; dst } -> p "no journey from node %d to node %d" src dst
  | Disconnected_window { start; len } ->
      p "interactions [%d, %d) have a disconnected union graph" start
        (start + len)
  | Vanished_edge { u; v; last_seen } ->
      p "edge (%d, %d) last appears at time %d, before the closing half" u v
        last_seen
  | Edge_gap { u; v; gap_start; gap_end } ->
      p "edge (%d, %d) absent for the %d steps of (%d, %d)" u v
        (gap_end - gap_start - 1) gap_start gap_end

exception Witness of witness

(* ------------------------------------------------------------------ *)
(* Validators. The three interval/recurrence classes share one strictly
   forward core over [(get, length)], so frozen sequences and chunked
   streams go through identical code; [Temporal] needs one flood per
   source and therefore a {!Sequence.t}. *)

(* Union-find with path halving, reset per window. *)
let uf_find parent i =
  let i = ref i in
  while parent.(!i) <> !i do
    parent.(!i) <- parent.(parent.(!i));
    i := parent.(!i)
  done;
  !i

let t_interval ~n ~length ~window get =
  let parent = Array.make n 0 in
  let blocks = length / window in
  try
    for b = 0 to blocks - 1 do
      for v = 0 to n - 1 do
        parent.(v) <- v
      done;
      let comps = ref n in
      let start = b * window in
      for t = start to start + window - 1 do
        let i = get t in
        let ru = uf_find parent (Interaction.u i)
        and rv = uf_find parent (Interaction.v i) in
        if ru <> rv then begin
          parent.(ru) <- rv;
          decr comps
        end
      done;
      if !comps > 1 then raise (Witness (Disconnected_window { start; len = window }))
    done;
    Ok ()
  with Witness w -> Error w

(* One shared footprint scan: last occurrence per packed edge, plus
   first-appearance order so edge witnesses are deterministic. *)
let scan_edges ~length get ~on_occurrence =
  let last = Hashtbl.create 64 in
  let order = ref [] in
  for t = 0 to length - 1 do
    let key = Interaction.to_int (get t) in
    let prev =
      match Hashtbl.find_opt last key with
      | Some o -> o
      | None ->
          order := key :: !order;
          -1
    in
    on_occurrence ~key ~prev ~time:t;
    Hashtbl.replace last key t
  done;
  (last, List.rev !order)

let decode_edge key =
  let i = Interaction.of_int_unchecked key in
  (Interaction.u i, Interaction.v i)

let recurrent ~length get =
  let half = (length + 1) / 2 in
  let last, order =
    scan_edges ~length get ~on_occurrence:(fun ~key:_ ~prev:_ ~time:_ -> ())
  in
  try
    List.iter
      (fun key ->
        let last_seen = Hashtbl.find last key in
        if last_seen < half then begin
          let u, v = decode_edge key in
          raise (Witness (Vanished_edge { u; v; last_seen }))
        end)
      order;
    Ok ()
  with Witness w -> Error w

let bounded_recurrent ~length ~bound get =
  try
    let last, order =
      scan_edges ~length get ~on_occurrence:(fun ~key ~prev ~time ->
          if time - prev > bound then begin
            let u, v = decode_edge key in
            raise (Witness (Edge_gap { u; v; gap_start = prev; gap_end = time }))
          end)
    in
    List.iter
      (fun key ->
        let o = Hashtbl.find last key in
        if length - o > bound then begin
          let u, v = decode_edge key in
          raise (Witness (Edge_gap { u; v; gap_start = o; gap_end = length }))
        end)
      order;
    Ok ()
  with Witness w -> Error w

let temporal ~n s =
  try
    for src = 0 to n - 1 do
      let arrival = Temporal.earliest_arrival ~n ~src s in
      for dst = 0 to n - 1 do
        if arrival.(dst) = None then raise (Witness (Unreachable { src; dst }))
      done
    done;
    Ok ()
  with Witness w -> Error w

let check_param cls =
  match cls with
  | T_interval w when w < 1 ->
      invalid_arg "Tvg_class: T_interval window must be >= 1"
  | Bounded_recurrent b when b < 1 ->
      invalid_arg "Tvg_class: Bounded_recurrent bound must be >= 1"
  | _ -> ()

let validate_stream ~n ~length cls get =
  check_param cls;
  match cls with
  | Temporal ->
      invalid_arg
        "Tvg_class.validate_stream: Temporal needs random access (one flood \
         per source); freeze a prefix and use Tvg_class.validate"
  | T_interval window -> t_interval ~n ~length ~window get
  | Recurrent -> recurrent ~length get
  | Bounded_recurrent bound -> bounded_recurrent ~length ~bound get

let validate ~n cls s =
  check_param cls;
  match cls with
  | Temporal -> temporal ~n s
  | _ ->
      validate_stream ~n ~length:(Sequence.length s) cls (fun t ->
          Sequence.unsafe_get s t)

(* ------------------------------------------------------------------ *)
(* Classification summary. *)

type summary = {
  nodes : int;
  length : int;
  footprint_edges : int;
  footprint_connected : bool;
  temporal : (unit, witness) result;
  recurrent : (unit, witness) result;
  min_window : int option;
  min_bound : int option;
}

let summarize ~n s =
  let length = Sequence.length s in
  let get t = Sequence.unsafe_get s t in
  let footprint = Underlying.of_sequence ~n s in
  let min_window =
    let rec go w =
      if w > length then None
      else if t_interval ~n ~length ~window:w get = Ok () then Some w
      else go (2 * w)
    in
    go 1
  in
  let min_bound =
    (* The smallest valid bound is the largest gap between consecutive
       occurrences of any footprint edge, with sentinels at -1 and
       [length] — no search needed. *)
    if length = 0 then None
    else begin
      let max_gap = ref 0 in
      let last, _ =
        scan_edges ~length get ~on_occurrence:(fun ~key:_ ~prev ~time ->
            if time - prev > !max_gap then max_gap := time - prev)
      in
      Hashtbl.iter
        (fun _ o -> if length - o > !max_gap then max_gap := length - o)
        last;
      Some !max_gap
    end
  in
  {
    nodes = n;
    length;
    footprint_edges = Static_graph.edge_count footprint;
    footprint_connected = Traversal.connected footprint;
    temporal = temporal ~n s;
    recurrent = recurrent ~length get;
    min_window;
    min_bound;
  }

(* ------------------------------------------------------------------ *)
(* Class-constrained generators. Both are block generators: interaction
   [t] lives in tumbling block [t / window]; a block's contents are
   drawn the first time any of its indices is requested, so identical
   seeds replay identical schedules as long as draws arrive in
   non-decreasing time order (the schedule layer's contract). *)

let block_generator ~what ~window fill =
  let block = Array.make window 0 in
  (* Base of the next block to draw; the filled block is
     [next_base - window .. next_base - 1]. *)
  let next_base = ref 0 in
  fun t ->
    if t < !next_base - window then
      invalid_arg
        (what
       ^ ": draws must be requested in non-decreasing time order (the block \
          for an earlier time was already discarded)");
    while t >= !next_base do
      fill block;
      next_base := !next_base + window
    done;
    Interaction.of_int_unchecked block.(t - (!next_base - window))

let tree_edge_ints rng ~n =
  let tree = Graph_gen.random_tree rng ~n in
  Array.of_list
    (List.map
       (fun (u, v) -> Interaction.to_int (Interaction.make u v))
       (Static_graph.edges tree))

let gen_t_interval rng ~n ~window =
  if n < 2 then invalid_arg "Tvg_class.gen_t_interval: need n >= 2";
  if window = 1 then
    (* 1-interval (per-step connectivity): emit back-to-back fresh
       spanning trees with no fillers — the tightest refresh the
       pairwise-interaction model supports. A single interaction only
       connects n = 2, so for larger n the schedule realizes
       T-interval (n - 1): every tumbling (n - 1)-window is exactly
       one spanning tree (the validator round-trips at that width). *)
    block_generator ~what:"Tvg_class.gen_t_interval" ~window:(n - 1)
      (fun block ->
        let edges = tree_edge_ints rng ~n in
        Array.blit edges 0 block 0 (n - 1);
        Prng.shuffle rng block)
  else if window < n - 1 then
    invalid_arg
      "Tvg_class.gen_t_interval: window must be 1 (per-step connectivity, \
       realized as back-to-back spanning trees) or >= n - 1 (a window must \
       fit a spanning tree)"
  else
  block_generator ~what:"Tvg_class.gen_t_interval" ~window (fun block ->
      (* Fresh spanning tree per window, buried among uniform fillers. *)
      let edges = tree_edge_ints rng ~n in
      let m = Array.length edges in
      Array.blit edges 0 block 0 m;
      for idx = m to window - 1 do
        block.(idx) <- Interaction.to_int (Prng.pair_with rng n Interaction.make)
      done;
      Prng.shuffle rng block)

let gen_bounded_recurrent rng ~n ~bound =
  if n < 2 then invalid_arg "Tvg_class.gen_bounded_recurrent: need n >= 2";
  if bound < 2 * (n - 1) then
    invalid_arg
      "Tvg_class.gen_bounded_recurrent: bound must be >= 2 * (n - 1) (a \
       half-window must fit the whole footprint)";
  (* One fixed footprint tree; every tumbling half-window contains all
     its edges, so every sliding [bound]-window — which always covers a
     full half-window — does too. *)
  let edges = tree_edge_ints rng ~n in
  let m = Array.length edges in
  let half = bound / 2 in
  block_generator ~what:"Tvg_class.gen_bounded_recurrent" ~window:half
    (fun block ->
      Array.blit edges 0 block 0 m;
      for idx = m to half - 1 do
        block.(idx) <- Prng.choose rng edges
      done;
      Prng.shuffle rng block)
