(* glql_client — send requests to a running glqld.

     glql_client [--socket PATH | --tcp HOST:PORT] <request words...>
     glql_client [--socket PATH | --tcp HOST:PORT]        # REPL on stdin
     glql_client [...] --mutate GRAPH [op words...]       # one MUTATE batch

   With request words, sends one request (words containing blanks are
   re-quoted, so a shell-quoted GEL expression survives) and prints the
   reply; exits 0 on an OK reply, 1 otherwise. Without words, reads
   requests line by line from stdin until EOF.

   --mutate GRAPH assembles one protocol-v5 MUTATE batch: the ops come
   from the remaining request words when given, otherwise one section
   per stdin line (e.g. "ADD_EDGES 0 1 1 2" / "SET_LABEL 3 1.0"), all
   sent as a single atomic batch. --featurize GRAPH / --train MODEL /
   --predict MODEL assemble the protocol-v6 model-serving commands the
   same way (FEATURIZE takes the recipe and optional VERTEX/GRAPH mode,
   TRAIN the ON/WITH/TARGET sections, PREDICT the graph and optional
   vertices).

   A one-shot request is resent once after a dropped connection unless
   it writes state (LOAD, MUTATE, TRAIN, RESTORE, SHUTDOWN: see
   Protocol.classify), however it was spelled: a write is not
   idempotent, and the server may have applied it before dying. *)

module P = Glql_server.Protocol

let connect ~socket ~tcp =
  match tcp with
  | Some (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> failwith ("unknown host " ^ host)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd
  | None ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      fd

(* A restarting server (the sharded router relaunching, a daemon
   rolling over) refuses connections for a moment; retry with linear
   backoff (0.2s, 0.4s, 0.6s) before giving up, so supervised restarts
   don't flake scripted clients. ENOENT covers a unix socket the server
   unlinked but has not re-bound yet. Any other failure — or exhausted
   retries — still exits 1 with the error on stderr. *)
let connect_with_retry ~socket ~tcp =
  let rec go attempt =
    match connect ~socket ~tcp with
    | fd -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT), _, _)
      when attempt < 3 ->
        let delay = 0.2 *. float_of_int attempt in
        Printf.eprintf "glql_client: connect failed, retrying in %.1fs\n%!" delay;
        ignore (Unix.select [] [] [] delay);
        go (attempt + 1)
  in
  go 1

let scan_protocol_version reply =
  Option.bind (P.payload reply) (Glql_util.Json.int_member "protocol_version")

let quote_word w =
  if w = "" then "''"
  else if String.exists (fun c -> c = ' ' || c = '\t' || c = '\'' || c = '"') w then
    (* Prefer single quotes; fall back to double when the word has one. *)
    if String.contains w '\'' then "\"" ^ w ^ "\"" else "'" ^ w ^ "'"
  else w

(* The one-command flags: flag, command word, help. *)
let commands =
  [
    ( "--mutate",
      "MUTATE",
      "GRAPH send one MUTATE batch (ops from remaining words, else one section per stdin line)" );
    ( "--featurize",
      "FEATURIZE",
      "GRAPH send one FEATURIZE (recipe and optional mode from the remaining words)" );
    ( "--train",
      "TRAIN",
      "MODEL send one TRAIN (ON/WITH/TARGET sections from remaining words or stdin lines)" );
    ( "--predict",
      "PREDICT",
      "MODEL send one PREDICT (graph and optional vertices from the remaining words)" );
  ]

let () =
  let socket = ref "glqld.sock" in
  let tcp = ref "" in
  let command = ref None in
  let words = ref [] in
  let spec =
    [
      ("--socket", Arg.Set_string socket, "PATH Unix-domain socket of glqld (default glqld.sock)");
      ("--tcp", Arg.Set_string tcp, "HOST:PORT connect over TCP instead");
    ]
    @ List.map
        (fun (flag, word, doc) ->
          (flag, Arg.String (fun arg -> command := Some (flag, word, arg)), doc))
        commands
  in
  let usage = "glql_client: talk to a glqld server.\nusage: glql_client [options] [request words]" in
  Arg.parse spec (fun w -> words := w :: !words) usage;
  let words = List.rev !words in
  let tcp_target =
    if !tcp = "" then None
    else
      match String.rindex_opt !tcp ':' with
      | Some i -> (
          let host = String.sub !tcp 0 i in
          match int_of_string_opt (String.sub !tcp (i + 1) (String.length !tcp - i - 1)) with
          | Some port -> Some ((if host = "" then "127.0.0.1" else host), port)
          | None ->
              prerr_endline "glql_client: --tcp expects HOST:PORT";
              exit 1)
      | None ->
          prerr_endline "glql_client: --tcp expects HOST:PORT";
          exit 1
  in
  (* Connect plus version handshake: HELLO first, compare the server's
     protocol_version with ours and warn (stderr only — stdout carries
     exactly the replies to the user's requests). *)
  let open_session () =
    let fd = connect_with_retry ~socket:!socket ~tcp:tcp_target in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (try
       output_string oc "HELLO\n";
       flush oc;
       let reply = input_line ic in
       match scan_protocol_version reply with
       | Some v when v <> P.protocol_version ->
           Printf.eprintf
             "glql_client: warning: server speaks protocol v%d, client expects v%d\n%!" v
             P.protocol_version
       | Some _ -> ()
       | None ->
           Printf.eprintf
             "glql_client: warning: server did not report a protocol version (expected v%d)\n%!"
             P.protocol_version
     with End_of_file | Sys_error _ ->
       prerr_endline "glql_client: warning: server closed the connection during handshake");
    (fd, ic, oc)
  in
  match open_session () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "glql_client: cannot connect (%s)\n" (Unix.error_message e);
      exit 1
  | exception Failure msg ->
      Printf.eprintf "glql_client: %s\n" msg;
      exit 1
  | fd, ic, oc -> (
      let roundtrip ic oc line =
        output_string oc (line ^ "\n");
        flush oc;
        match input_line ic with
        | reply ->
            print_endline reply;
            Some (P.is_ok reply)
        | exception End_of_file -> None
      in
      (* Assemble a one-command line from a flag of [commands]: the tail
         comes from the request words when given, otherwise one section
         per non-blank stdin line. *)
      let gather flag =
        let ops =
          match words with
          | _ :: _ -> List.map quote_word words
          | [] ->
              let lines = ref [] in
              (try
                 while true do
                   let l = String.trim (input_line stdin) in
                   if l <> "" then lines := l :: !lines
                 done
               with End_of_file -> ());
              List.rev !lines
        in
        if ops = [] then begin
          Printf.eprintf "glql_client: %s needs request words (arguments or stdin lines)\n%!" flag;
          exit 1
        end;
        ops
      in
      let request =
        match (!command, words) with
        | Some (flag, word, arg), _ ->
            Some (String.concat " " (word :: quote_word arg :: gather flag))
        | None, [] -> None
        | None, words -> Some (String.concat " " (List.map quote_word words))
      in
      match request with
      | None ->
          (* REPL: one request per stdin line until EOF. Requests the
             server died on are not replayed — a REPL stream may hold
             non-idempotent state the user must re-drive themselves. *)
          let ok = ref true in
          (try
             while true do
               let line = input_line stdin in
               if String.trim line <> "" then
                 match roundtrip ic oc line with
                 | Some r -> ok := r && !ok
                 | None ->
                     prerr_endline "glql_client: server closed the connection";
                     ok := false;
                     raise End_of_file
             done
           with End_of_file -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          exit (if !ok then 0 else 1)
      | Some line ->
          let writes =
            match P.parse_request line with
            | Ok { P.req; _ } when (P.classify req).P.writes -> Some (P.command_name req)
            | _ -> None
          in
          let ok =
            match (roundtrip ic oc line, writes) with
            | Some r, _ -> r
            | None, Some cmd ->
                (* A write may have been applied before the connection
                   died; replaying could apply it twice. *)
                Printf.eprintf "glql_client: server closed the connection (%s is not replayed)\n%!"
                  cmd;
                false
            | None, None -> (
                (* The server vanished mid-request (router restarting a
                   worker, daemon rolling over). One request is safe to
                   replay, so reconnect — with the same backoff — and
                   resend once. *)
                prerr_endline "glql_client: server closed the connection; resending once";
                (try Unix.close fd with Unix.Unix_error _ -> ());
                match open_session () with
                | exception Unix.Unix_error (e, _, _) ->
                    Printf.eprintf "glql_client: cannot reconnect (%s)\n" (Unix.error_message e);
                    false
                | fd2, ic2, oc2 ->
                    let r =
                      match roundtrip ic2 oc2 line with
                      | Some r -> r
                      | None ->
                          prerr_endline "glql_client: server closed the connection";
                          false
                    in
                    (try Unix.close fd2 with Unix.Unix_error _ -> ());
                    r)
          in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          exit (if ok then 0 else 1))
