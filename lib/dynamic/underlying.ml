module Static_graph = Doda_graph.Static_graph

let of_sequence ~n s =
  let g = Static_graph.create n in
  Sequence.iteri (fun _ i -> Static_graph.add_edge g (Interaction.u i) (Interaction.v i)) s;
  g

let recurrent_edges ~n s ~period =
  if period <= 0 then invalid_arg "Underlying.recurrent_edges: period must be positive";
  let len = Sequence.length s in
  if period >= len then of_sequence ~n s
  else begin
    (* Sliding window: an edge is recurrent if its maximal gap between
       consecutive occurrences (including the borders) is < period. *)
    let last_seen = Hashtbl.create 97 in
    let max_gap = Hashtbl.create 97 in
    Sequence.iteri
      (fun t i ->
        let key = Interaction.to_pair i in
        let previous = try Hashtbl.find last_seen key with Not_found -> -1 in
        let gap = t - previous in
        let current = try Hashtbl.find max_gap key with Not_found -> 0 in
        Hashtbl.replace max_gap key (Stdlib.max current gap);
        Hashtbl.replace last_seen key t)
      s;
    let g = Static_graph.create n in
    Hashtbl.iter
      (fun (u, v) t ->
        let closing_gap = len - t in
        let worst = Stdlib.max closing_gap (Hashtbl.find max_gap (u, v)) in
        if worst <= period then Static_graph.add_edge g u v)
      last_seen;
    g
  end
