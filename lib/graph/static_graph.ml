module Int_set = Set.Make (Int)

type t = { size : int; mutable nedges : int; adj : Int_set.t array }

let create size =
  if size < 0 then invalid_arg "Static_graph.create: negative size";
  { size; nedges = 0; adj = Array.make size Int_set.empty }

let n g = g.size
let edge_count g = g.nedges

let check_node g u name =
  if u < 0 || u >= g.size then invalid_arg ("Static_graph." ^ name ^ ": node out of range")

let add_edge g u v =
  check_node g u "add_edge";
  check_node g v "add_edge";
  if u = v then invalid_arg "Static_graph.add_edge: self-loop";
  if not (Int_set.mem v g.adj.(u)) then begin
    g.adj.(u) <- Int_set.add v g.adj.(u);
    g.adj.(v) <- Int_set.add u g.adj.(v);
    g.nedges <- g.nedges + 1
  end

let of_edges size edge_list =
  let g = create size in
  List.iter (fun (u, v) -> add_edge g u v) edge_list;
  g

let has_edge g u v =
  check_node g u "has_edge";
  check_node g v "has_edge";
  Int_set.mem v g.adj.(u)

let neighbors g u =
  check_node g u "neighbors";
  Int_set.elements g.adj.(u)

let degree g u =
  check_node g u "degree";
  Int_set.cardinal g.adj.(u)

let fold_edges f g acc =
  let acc = ref acc in
  for u = 0 to g.size - 1 do
    Int_set.iter (fun v -> if u < v then acc := f u v !acc) g.adj.(u)
  done;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let copy g = { size = g.size; nedges = g.nedges; adj = Array.copy g.adj }

let equal g1 g2 =
  g1.size = g2.size && g1.nedges = g2.nedges
  && Array.for_all2 Int_set.equal g1.adj g2.adj

let complete size =
  let g = create size in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      add_edge g u v
    done
  done;
  g

let path size =
  let g = create size in
  for u = 0 to size - 2 do
    add_edge g u (u + 1)
  done;
  g

let cycle size =
  if size < 3 then invalid_arg "Static_graph.cycle: need at least 3 nodes";
  let g = path size in
  add_edge g (size - 1) 0;
  g

let star size =
  let g = create size in
  for u = 1 to size - 1 do
    add_edge g 0 u
  done;
  g

let grid rows cols =
  let g = create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then add_edge g (id r c) (id r (c + 1));
      if r + 1 < rows then add_edge g (id r c) (id (r + 1) c)
    done
  done;
  g

(* Connectivity via iterative DFS; defined here rather than in
   Traversal to keep [is_tree] self-contained. *)
let connected g =
  if g.size = 0 then true
  else begin
    let seen = Array.make g.size false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let u = Stack.pop stack in
      Int_set.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Stack.push v stack
          end)
        g.adj.(u)
    done;
    !count = g.size
  end

let is_tree g = g.nedges = g.size - 1 && connected g
