(** Nonblocking line connections: the one socket layer under the glqld
    select loops. Server clients, router clients and router→worker
    upstreams are all an ['a t], ['a] being the owner's state for it.
    Input is framed by {!Line_buf} under the configured limits; output
    is pushed as far as the socket takes it, the rest waits for the
    select write set, so no peer can block a loop. *)

(** What a loop lends its connections: counters, log, read buffer. *)
type env

val env : metrics:Metrics.t -> log:(string -> unit) -> env

type 'a t = {
  env : env;
  fd : Unix.file_descr;
  lines : Line_buf.t;
  out : Buffer.t;  (** bytes the socket has not accepted yet *)
  mutable closing : bool;  (** read no more; reaped once [out] drains *)
  mutable broken : bool;  (** peer gone or dropped: later output is discarded *)
  data : 'a;
}

(** A connected socket, switched to nonblocking. *)
val wrap : env -> ?max_line_bytes:int -> ?max_buf_bytes:int -> Unix.file_descr -> 'a -> 'a t

val close_fd : Unix.file_descr -> unit

(** Queue one line (a no-op once broken); [flush] pushes what the socket
    accepts and breaks the connection on a hard write error. *)
val add_line : 'a t -> string -> unit

val flush : 'a t -> unit

(** Client side: [flush], then drop a peer whose unread backlog passed
    the 8 MiB cap. [reply] is [add_line] then [push]. *)
val push : 'a t -> unit

val reply : 'a t -> string -> unit

(** Read once: complete lines, oldest first. EOF sets [closing] (replies
    still owed are delivered), a read error breaks the connection. *)
val receive : 'a t -> (string list, Line_buf.error) result

(** Listeners plus the connections accepted on them. *)
type 'a front

(** Bind the Unix socket (replacing a stale file) and/or the localhost
    TCP port. [name] is the front's name in the refusal line
    ["<name> is at its N-connection limit"]. *)
val front :
  env ->
  name:string ->
  socket_path:string option ->
  tcp_port:int option ->
  max_connections:int ->
  max_line_bytes:int ->
  max_inbuf_bytes:int ->
  'a front

(** One select-loop step over the listeners (while [accepting]), the
    connections and the owner's extra [read]/[write] fds, for at most
    the given seconds: flush writable clients; accept new ones with
    state [data ()], or refuse them with ERR_LIMIT_CONNS at the cap;
    pass each non-blank request line to [on_line]; drop a client that
    trips an input limit with ERR_LIMIT_LINE / ERR_LIMIT_INBUF. Returns
    the ready (readable, writable) fds the front does not own. *)
val step :
  'a front ->
  accepting:bool ->
  data:(unit -> 'a) ->
  on_line:('a t -> string -> unit) ->
  ?read:Unix.file_descr list ->
  ?write:Unix.file_descr list ->
  float ->
  Unix.file_descr list * Unix.file_descr list

(** Close the connections [finished] says are done, once [out] drained. *)
val reap : 'a front -> finished:('a t -> bool) -> unit

(** Shutdown: drain output for at most [drain_s] seconds, then close
    every connection and listener and unlink the socket. *)
val close : 'a front -> drain_s:float -> unit

(** Run with SIGINT/SIGTERM setting the flag and SIGPIPE ignored,
    restoring the previous handlers afterwards. *)
val with_signals : bool Atomic.t -> (unit -> 'a) -> 'a
