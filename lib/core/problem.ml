type t = Aggregation of { sink : int } | Dissemination of { k : int }

let aggregation ~sink =
  if sink < 0 then invalid_arg "Problem.aggregation: negative sink";
  Aggregation { sink }

let dissemination ~k =
  if k < 1 then invalid_arg "Problem.dissemination: need at least one token";
  Dissemination { k }

let name = function
  | Aggregation _ -> "aggregation"
  | Dissemination { k } -> Printf.sprintf "gossip:%d" k

let syntax = "aggregation | gossip:K"

let parse ?(sink = 0) s =
  match String.split_on_char ':' s with
  | [ "aggregation" ] ->
      if sink < 0 then Error "aggregation needs a non-negative sink"
      else Ok (Aggregation { sink })
  | [ "gossip"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Ok (Dissemination { k })
      | _ -> Error "gossip needs a token count >= 1, e.g. gossip:8")
  | _ -> Error ("unknown problem; syntax: " ^ syntax)

let describe = function
  | Aggregation { sink } ->
      Printf.sprintf
        "single-sink aggregation: run ends when node %d is the only data owner"
        sink
  | Dissemination { k } ->
      Printf.sprintf
        "%d-token dissemination: run ends when every node knows all %d tokens"
        k k

let not_aggregation what =
  invalid_arg (Printf.sprintf "Problem.%s: not an aggregation problem" what)

let not_dissemination what =
  invalid_arg (Printf.sprintf "Problem.%s: not a dissemination problem" what)

let sink = function
  | Aggregation { sink } -> sink
  | Dissemination _ -> not_aggregation "sink"

let initial_holders t ~n =
  match t with
  | Aggregation _ -> Array.make n true
  | Dissemination _ -> not_aggregation "initial_holders"

let target_owners = function
  | Aggregation _ -> 1
  | Dissemination _ -> not_aggregation "target_owners"

let tokens = function
  | Dissemination { k } -> k
  | Aggregation _ -> not_dissemination "tokens"

let token_home t ~n ~token =
  match t with
  | Dissemination { k } ->
      if token < 0 || token >= k then
        invalid_arg "Problem.token_home: token out of range";
      token mod n
  | Aggregation _ -> not_dissemination "token_home"

let covered t ~known =
  match t with
  | Dissemination { k } -> known = k
  | Aggregation _ -> not_dissemination "covered"
