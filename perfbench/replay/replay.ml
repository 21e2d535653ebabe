(* Reference replies for the benchmark's correctness check.

   Reads request lines on stdin and writes, for each, the reply that
   [Server.handle_line] gives in-process — no socket, no select-loop
   batching, one line at a time in input order — on stdout. The
   benchmark feeds it every request a run sent, in each connection's
   send order, and compares the daemon's replies with these. *)

module Server = Glql_server.Server

let () =
  let server = Server.create { Server.default_config with Server.socket_path = None } in
  (try
     while true do
       print_string (Server.handle_line server (input_line stdin));
       print_char '\n'
     done
   with End_of_file -> ());
  flush stdout
