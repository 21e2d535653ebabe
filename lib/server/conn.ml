(* Nonblocking line connections, shared by the server's clients, the
   router's clients and the router's upstreams. This module owns what
   every kind needs — listen, accept under the connection cap, read and
   frame lines under the input limits, push bytes without ever blocking
   the loop, cap a non-reading peer's backlog, reap, drain at shutdown —
   so the loops above it only decide what a line means. *)

module P = Protocol
module Clock = Glql_util.Clock
module Trace = Glql_util.Trace

(* One read buffer per loop: a loop runs on one domain. *)
type env = { metrics : Metrics.t; log : string -> unit; chunk : Bytes.t }

let env ~metrics ~log = { metrics; log; chunk = Bytes.create 65536 }

type 'a t = {
  env : env;
  fd : Unix.file_descr;
  lines : Line_buf.t;
  out : Buffer.t;
  mutable closing : bool;
  mutable broken : bool;
  data : 'a;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let wrap env ?max_line_bytes ?max_buf_bytes fd data =
  Unix.set_nonblock fd;
  {
    env;
    fd;
    lines = Line_buf.create ?max_line_bytes ?max_buf_bytes ();
    out = Buffer.create 256;
    closing = false;
    broken = false;
    data;
  }

let break c =
  Buffer.clear c.out;
  c.broken <- true;
  c.closing <- true

let add_line c line =
  if not c.broken then begin
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n'
  end

(* Push as much of [out] as the socket accepts and keep the rest for the
   select write set, so a peer that stops reading stalls only itself. *)
let flush c =
  let pending = Buffer.length c.out in
  if pending > 0 then begin
    (* Visible in the Chrome trace only (no request sink is installed on
       the select loop), closing the request lifecycle: read -> dispatch
       -> reply flush. *)
    Trace.with_span ~args:[ ("bytes", string_of_int pending) ] "reply.flush" @@ fun () ->
    let s = Buffer.contents c.out in
    let written = ref 0 in
    let failed = ref false in
    let stop = ref false in
    while (not !stop) && !written < pending do
      match Unix.write_substring c.fd s !written (pending - !written) with
      | 0 -> stop := true
      | n -> written := !written + n
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
          stop := true
      | exception Unix.Unix_error _ ->
          (* Peer is gone (EPIPE etc.): drop the unsent tail and reap. *)
          failed := true;
          stop := true
    done;
    if !written > 0 then Metrics.add_io c.env.metrics ~bytes_in:0 ~bytes_out:!written;
    Buffer.clear c.out;
    if !failed then break c
    else if !written < pending then
      Buffer.add_string c.out (String.sub s !written (pending - !written))
  end

(* A reader this far behind is not coming back; cap the memory it can
   pin. Upstreams have no cap of their own: the router only sends them
   what its capped clients sent. *)
let max_outbuf = 8 * 1024 * 1024

let push c =
  flush c;
  if Buffer.length c.out > max_outbuf then begin
    c.env.log
      (Printf.sprintf "dropping client with %d unsent reply bytes (not reading)"
         (Buffer.length c.out));
    Metrics.conn_dropped c.env.metrics;
    break c
  end

let reply c line =
  add_line c line;
  push c

let receive c =
  match Unix.read c.fd c.env.chunk 0 (Bytes.length c.env.chunk) with
  | 0 ->
      c.closing <- true;
      Ok []
  | n ->
      Metrics.add_io c.env.metrics ~bytes_in:n ~bytes_out:0;
      Line_buf.feed c.lines c.env.chunk ~off:0 ~len:n
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> Ok []
  | exception Unix.Unix_error _ ->
      break c;
      Ok []

(* Drop a client for a governance violation: one structured error line,
   best-effort (whatever one flush pushes out), then close. The unsent
   tail is discarded so a peer that never reads cannot pin the
   connection in "closing" forever. *)
let drop c (err : P.error) =
  Metrics.conn_dropped c.env.metrics;
  c.env.log (Printf.sprintf "dropping client: %s (%s)" err.P.message err.P.code);
  add_line c (P.err_line err);
  flush c;
  break c

let limit_error = function
  | Line_buf.Line_too_long limit ->
      P.error ~code:"ERR_LIMIT_LINE" (Printf.sprintf "request line exceeds the %d-byte limit" limit)
  | Line_buf.Buffer_overflow limit ->
      P.error ~code:"ERR_LIMIT_INBUF"
        (Printf.sprintf "connection buffered more than %d bytes without a newline" limit)

(* --- the listening front -------------------------------------------------- *)

type 'a front = {
  f_env : env;
  name : string;
  socket_path : string option;
  listeners : Unix.file_descr list;
  max_connections : int;
  max_line_bytes : int;
  max_inbuf_bytes : int;
  conns : (Unix.file_descr, 'a t) Hashtbl.t;
}

let front env ~name ~socket_path ~tcp_port ~max_connections ~max_line_bytes ~max_inbuf_bytes =
  let listen domain addr what =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    env.log ("listening on " ^ what);
    fd
  in
  let unix path =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    listen Unix.PF_UNIX (Unix.ADDR_UNIX path) ("unix socket " ^ path)
  in
  let tcp port =
    listen Unix.PF_INET
      (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
      ("tcp port " ^ string_of_int port)
  in
  let listeners =
    Option.to_list (Option.map unix socket_path) @ Option.to_list (Option.map tcp tcp_port)
  in
  if listeners = [] then
    invalid_arg (String.capitalize_ascii name ^ ".serve: no socket_path and no tcp_port");
  {
    f_env = env;
    name;
    socket_path;
    listeners;
    max_connections;
    max_line_bytes;
    max_inbuf_bytes;
    conns = Hashtbl.create 16;
  }

let accept f listener data =
  match Unix.accept listener with
  | fd, _ ->
      let live = Hashtbl.length f.conns in
      if live >= f.max_connections then begin
        (* Refuse above the cap: one structured error, then close. The
           fresh fd is still blocking, but a ~60-byte write into an
           empty send buffer cannot block. *)
        Metrics.conn_rejected f.f_env.metrics;
        f.f_env.log
          (Printf.sprintf "rejecting connection (%d live, cap %d)" live f.max_connections);
        let line =
          P.err_line
            (P.error ~code:"ERR_LIMIT_CONNS"
               (Printf.sprintf "%s is at its %d-connection limit" f.name f.max_connections))
          ^ "\n"
        in
        (try ignore (Unix.write_substring fd line 0 (String.length line))
         with Unix.Unix_error _ -> ());
        close_fd fd
      end
      else begin
        Hashtbl.replace f.conns fd
          (wrap f.f_env ~max_line_bytes:f.max_line_bytes ~max_buf_bytes:f.max_inbuf_bytes fd
             (data ()));
        f.f_env.log (Printf.sprintf "client connected (%d live)" (live + 1))
      end
  | exception Unix.Unix_error _ -> ()

let step f ~accepting ~data ~on_line ?(read = []) ?(write = []) timeout =
  let watched_read =
    Hashtbl.fold (fun fd c acc -> if c.closing then acc else fd :: acc) f.conns read
  in
  let watched_write =
    Hashtbl.fold (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc) f.conns write
  in
  let watched_read = if accepting then f.listeners @ watched_read else watched_read in
  let readable, writable =
    match Unix.select watched_read watched_write [] timeout with
    | readable, writable, _ -> (readable, writable)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  (* Handle the fds this front owns; the rest go back to the owner. *)
  let unowned handle fds =
    List.filter
      (fun fd ->
        if List.mem fd f.listeners then (
          accept f fd data;
          false)
        else
          match Hashtbl.find_opt f.conns fd with
          | Some c ->
              handle c;
              false
          | None -> true)
      fds
  in
  let writable = unowned flush writable in
  let readable =
    unowned
      (fun c ->
        match receive c with
        | Ok lines -> List.iter (fun l -> if String.trim l <> "" then on_line c l) lines
        | Error e -> drop c (limit_error e))
      readable
  in
  (readable, writable)

let reap f ~finished =
  Hashtbl.fold
    (fun fd c acc -> if finished c && Buffer.length c.out = 0 then fd :: acc else acc)
    f.conns []
  |> List.iter (fun fd ->
         close_fd fd;
         Hashtbl.remove f.conns fd)

let close f ~drain_s =
  let deadline = Clock.deadline_after drain_s in
  let rec drain () =
    let waiting =
      Hashtbl.fold (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc) f.conns []
    in
    if waiting <> [] && not (Clock.expired deadline) then begin
      (match Unix.select [] waiting [] 0.1 with
      | _, writable, _ -> List.iter (fun fd -> flush (Hashtbl.find f.conns fd)) writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  drain ();
  Hashtbl.iter (fun fd _ -> close_fd fd) f.conns;
  List.iter close_fd f.listeners;
  Option.iter (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ()) f.socket_path

let with_signals stop_flag body =
  let prev =
    List.map
      (fun signal ->
        (signal, Sys.signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true))))
      [ Sys.sigint; Sys.sigterm ]
  in
  (* Ignored, so a write to a vanished peer surfaces as EPIPE in [flush]. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Fun.protect body ~finally:(fun () ->
      List.iter (fun (signal, h) -> try Sys.set_signal signal h with Invalid_argument _ -> ()) prev)
