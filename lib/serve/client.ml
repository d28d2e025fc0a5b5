module P = Protocol

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect endpoint =
  let fd, addr =
    match endpoint with
    | Server.Tcp (host, port) ->
        let a =
          try Unix.inet_addr_of_string host
          with _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> failwith ("cannot resolve host " ^ host))
        in
        (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (a, port))
    | Server.Unix_path path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
  in
  (match Unix.connect fd addr with
  | () -> ()
  | exception e ->
      (try Unix.close fd with _ -> ());
      raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try close_out_noerr t.oc with _ -> ()

let request t req = Frame.write t.oc (Frame.Json (P.request_to_json req))
let send_data t chunk = Frame.write t.oc (Frame.Data chunk)
let finish_data t = Frame.write t.oc (Frame.Data "")

let send_trace_file t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let k = input ic buf 0 (Bytes.length buf) in
        if k > 0 then begin
          send_data t (Bytes.sub_string buf 0 k);
          go ()
        end
      in
      go ());
  finish_data t

let upload_of_trace path =
  let _gen, length, max_node = Doda_dynamic.Trace.stream path in
  { Doda_sim.Job.nodes = max_node + 1; length }

let read_response t =
  match Frame.read t.ic with
  | None -> None
  | Some (Error e) -> Some (Error e)
  | Some (Ok (Frame.Data _)) ->
      Some (Error "unexpected data frame from server")
  | Some (Ok (Frame.Json j)) -> Some (P.response_of_json j)

let has_upload = function
  | P.Run { upload = Some _; _ } | P.Classify _ -> true
  | _ -> false

let terminal = function
  | P.Rejected _ | P.Summary _ | P.Run_result _ | P.Classify_result _
  | P.Cancelled _ | P.Checkpointed _ | P.Cancel_ack _ | P.Error_response _ ->
      true
  | P.Accepted _ | P.Started _ | P.Point _ -> false

let run_job t ?(on_response = fun _ -> ()) ?trace_file req =
  request t req;
  let rec collect acc =
    match read_response t with
    | None -> Error "server hung up before the job finished"
    | Some (Error e) -> Error e
    | Some (Ok resp) -> (
        on_response resp;
        let acc = resp :: acc in
        match resp with
        | P.Accepted _ when has_upload req -> (
            (* the server reads the body on the executor, possibly
               later; streaming now is fine — the socket buffers and
               the server drains whatever the job does not consume *)
            match trace_file with
            | Some path ->
                send_trace_file t path;
                collect acc
            | None ->
                Error "request carries an upload but no trace_file was given")
        | resp when terminal resp -> Ok (List.rev acc)
        | _ -> collect acc)
  in
  collect []
