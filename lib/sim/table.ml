type t = { header : string list; mutable rows : string list list }

let create ~header =
  if header = [] then invalid_arg "Table.create: empty header";
  { header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: row width differs from header";
  t.rows <- row :: t.rows

let header_row t = t.header
let rows t = List.rev t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun c cell -> widths.(c) <- Stdlib.max widths.(c) (String.length cell)))
    all;
  let line cells =
    String.concat "  "
      (List.mapi
         (fun c cell -> cell ^ String.make (widths.(c) - String.length cell) ' ')
         cells)
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (line t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t = print_string (render t)

let cell_f x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

let cell_ratio x = Printf.sprintf "%.3f" x
