module Prng = Doda_prng.Prng
module Schedule = Doda_dynamic.Schedule
module Sequence = Doda_dynamic.Sequence
module Generators = Doda_dynamic.Generators
module Mobility = Doda_dynamic.Mobility
module Trace = Doda_dynamic.Trace

type t =
  | Uniform
  | Sink_biased of float
  | Round_robin
  | Waypoint
  | Community of int * float
  | Grid of int * int
  | Markov of float * float
  | T_interval of int
  | Bounded_recurrent of int
  | Trace_file of string

let syntax =
  "uniform | sink-biased:W | round-robin | waypoint | community:K:P | grid:R:C | \
   markov:PON:POFF | t-interval:W | bounded-recurrent:B | trace:FILE"

let parse s =
  match String.split_on_char ':' s with
  | [ "uniform" ] -> Ok Uniform
  | [ "sink-biased"; w ] -> (
      match float_of_string_opt w with
      | Some w when w > 0.0 -> Ok (Sink_biased w)
      | _ -> Error "sink-biased needs a positive weight, e.g. sink-biased:5.0")
  | [ "round-robin" ] -> Ok Round_robin
  | [ "waypoint" ] -> Ok Waypoint
  | [ "community"; k; p ] -> (
      match (int_of_string_opt k, float_of_string_opt p) with
      | Some k, Some p when k >= 1 && p >= 0.0 && p <= 1.0 -> Ok (Community (k, p))
      | _ -> Error "community needs groups and p_intra, e.g. community:4:0.8")
  | [ "grid"; r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r >= 1 && c >= 1 -> Ok (Grid (r, c))
      | _ -> Error "grid needs rows and cols, e.g. grid:5:5")
  | [ "markov"; p_on; p_off ] -> (
      match (float_of_string_opt p_on, float_of_string_opt p_off) with
      | Some p_on, Some p_off
        when p_on > 0.0 && p_on <= 1.0 && p_off > 0.0 && p_off <= 1.0 ->
          Ok (Markov (p_on, p_off))
      | _ -> Error "markov needs two probabilities in (0,1], e.g. markov:0.01:0.2")
  | [ "t-interval"; w ] -> (
      match int_of_string_opt w with
      | Some w when w >= 1 -> Ok (T_interval w)
      | _ -> Error "t-interval needs a window >= 1, e.g. t-interval:32")
  | [ "bounded-recurrent"; b ] -> (
      match int_of_string_opt b with
      | Some b when b >= 1 -> Ok (Bounded_recurrent b)
      | _ -> Error "bounded-recurrent needs a bound >= 1, e.g. bounded-recurrent:64")
  | "trace" :: rest when rest <> [] -> Ok (Trace_file (String.concat ":" rest))
  | _ -> Error ("unknown workload; syntax: " ^ syntax)

let to_string = function
  | Uniform -> "uniform"
  | Sink_biased w -> Printf.sprintf "sink-biased:%g" w
  | Round_robin -> "round-robin"
  | Waypoint -> "waypoint"
  | Community (k, p) -> Printf.sprintf "community:%d:%g" k p
  | Grid (r, c) -> Printf.sprintf "grid:%d:%d" r c
  | Markov (p_on, p_off) -> Printf.sprintf "markov:%g:%g" p_on p_off
  | T_interval w -> Printf.sprintf "t-interval:%d" w
  | Bounded_recurrent b -> Printf.sprintf "bounded-recurrent:%d" b
  | Trace_file f -> "trace:" ^ f

let is_finite = function Trace_file _ -> true | _ -> false

let check ?reps t ~n ~sink =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let max_n = Doda_dynamic.Interaction.max_node_id + 1 in
  match (reps, t) with
  | Some r, _ when r < 1 -> fail "reps must be >= 1, got %d" r
  | _ when sink < 0 -> fail "sink must be >= 0, got %d" sink
  | _, Trace_file _ -> Ok () (* the trace widens n to fit its nodes *)
  | _ when n < 2 -> fail "n must be >= 2, got %d" n
  | _ when n > max_n -> fail "n must be <= %d, got %d" max_n n
  | _ when sink >= n -> fail "sink must be < n = %d, got %d" n sink
  | _, T_interval w when w <> 1 && w < n - 1 ->
      fail "t-interval:%d needs a window of 1 or >= n - 1 = %d" w (n - 1)
  | _, Bounded_recurrent b when b < 2 * (n - 1) ->
      fail "bounded-recurrent:%d needs a bound >= 2 * (n - 1) = %d" b
        (2 * (n - 1))
  | _ -> Ok ()

let trace_node_count ~n ~sink ~nodes =
  let n = Stdlib.max n nodes in
  if sink < n then Ok n
  else
    Error
      (Printf.sprintf
         "sink must be < %d, the larger of n and the trace's node count, got %d"
         n sink)

let build ?(stream = false) ?block ?jobs t ~n ~sink ~seed =
  let rng = Prng.create seed in
  (* Streaming keeps the draw stream: the same generator function
     backs an [of_fun_chunked] schedule instead of an [of_fun] one, so
     a run differs only in memory behaviour, never in results. *)
  let wrap gen =
    if stream then Schedule.of_fun_chunked ?block ~n ~sink gen
    else Schedule.of_fun ~n ~sink gen
  in
  match t with
  | Uniform -> wrap (Generators.uniform rng ~n)
  | Sink_biased w ->
      let weights = Array.init n (fun v -> if v = sink then w else 1.0) in
      wrap (Generators.weighted_nodes rng ~weights)
  | Round_robin -> wrap (Generators.round_robin ~n)
  | Waypoint -> wrap (Mobility.random_waypoint rng ~n)
  | Community (k, p) -> wrap (Mobility.community rng ~n ~communities:k ~p_intra:p)
  | Grid (r, c) -> wrap (Mobility.grid_walkers rng ~n ~rows:r ~cols:c)
  | Markov (p_on, p_off) -> wrap (Generators.markov_edges rng ~n ~p_on ~p_off)
  | T_interval w -> wrap (Doda_dynamic.Tvg_class.gen_t_interval rng ~n ~window:w)
  | Bounded_recurrent b ->
      wrap (Doda_dynamic.Tvg_class.gen_bounded_recurrent rng ~n ~bound:b)
  | Trace_file path ->
      (* The sink must be one of the trace's nodes, which only reading
         the trace tells. *)
      let fit max_node =
        match trace_node_count ~n ~sink ~nodes:(max_node + 1) with
        | Ok n -> n
        | Error msg -> failwith msg
      in
      if stream then begin
        let gen, length, max_node = Trace.stream path in
        Schedule.of_fun_chunked ?block ~length ~n:(fit max_node) ~sink gen
      end
      else
        let s = Trace.load ?jobs path in
        Schedule.of_sequence ~n:(fit (Sequence.max_node s)) ~sink s

let schedule ?(telemetry = Doda_obs.Instrument.disabled) ?stream ?block ?jobs
    t ~n ~sink ~seed =
  (* Only build the span name when someone is listening. *)
  if Doda_obs.Instrument.enabled telemetry then
    Doda_obs.Instrument.with_span telemetry
      ("workload/" ^ to_string t)
      (fun () -> build ?stream ?block ?jobs t ~n ~sink ~seed)
  else build ?stream ?block ?jobs t ~n ~sink ~seed

(* The checkpoint key of a sweep, shared verbatim by `doda sweep
   --checkpoint` and the serve sweep handler: a checkpoint written by
   a drained server job must resume under the offline CLI (and vice
   versa), which requires the two to agree on every byte of the key. *)
let sweep_checkpoint_key ~batch ~algo ~source ~ns ~reps ~seed ~max_steps =
  Printf.sprintf "%s v1 algo=%s source=%s ns=%s reps=%d seed=%d%s"
    (if batch then "sweep-batch" else "sweep")
    algo (to_string source)
    (String.concat "," (List.map string_of_int ns))
    reps seed
    (* Appended only when overridden, so checkpoints written before
       the flag existed keep resuming. *)
    (match max_steps with
    | Some m -> Printf.sprintf " max-steps=%d" m
    | None -> "")
