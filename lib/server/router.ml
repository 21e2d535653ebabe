(* The router front of the sharded glqld topology.

   Speaks the worker protocol *unchanged* to clients on one select loop
   and multiplexes every request onto persistent {!Conn} connections to
   N shard workers (each a full glqld owning the graph names that
   stable-hash to its shard, see {!Shard}). Graph-keyed commands (the
   graph and write flag of {!Protocol.classify}) forward verbatim to
   the owning shard, so their replies are
   byte-identical to a single-process glqld holding the same registry —
   with one placement caveat: a model lives on the shard of its first
   TRAIN source graph, so PREDICT requires its feature graph to co-hash
   with that source (the same constraint multi-graph TRAIN already has);
   a cross-shard PREDICT is rejected up front with the constraint
   spelled out rather than forwarded into a misleading
   ERR_UNKNOWN_MODEL.
   Registry-wide commands (GRAPHS / STATS / VERSION / SAVE / RESTORE /
   MODELS) fan out and the replies are merged by the pure functions
   below. The router also health-probes up members with periodic PINGs
   so a wedged worker is detected without waiting for an EOF.

   Ordering: a client's replies must come back in request order even
   though shards answer at their own pace, so every request takes a
   [slot] in the client's FIFO; replies land in their slot and the queue
   flushes head-first. Upstream, each member connection keeps its own
   FIFO of reply destinations — workers answer in request order on one
   connection, which pairs replies to destinations with no tagging and
   no protocol change.

   Failure: a member EOF/write-error marks it down and fails its
   in-flight destinations with ERR_SHARD_DOWN; requests for that shard's
   graphs keep failing fast while every other shard keeps serving. With
   [respawn] the router relaunches the worker from its argv — the worker
   boots from its last snapshot ([--snapshot] is in the argv) — and
   reconnects asynchronously; reads for the shard resume once it is up.

   Read replicas: REPLICA <shard> ships a snapshot (SAVE on the primary
   to the replica's snapshot path), spawns a fresh worker booting from
   it, and adds it to the shard's member list; read commands round-robin
   across primary + live replicas, and LOAD / RESTORE broadcast to
   replicas so they stay in sync. *)

module P = Protocol
module Json = Glql_util.Json
module Clock = Glql_util.Clock

type config = {
  socket_path : string option;  (** front unix socket clients connect to *)
  tcp_port : int option;
  shards : int;
  respawn : bool;  (** relaunch dead managed workers from their argv *)
  max_connections : int;
  max_line_bytes : int;
  max_inbuf_bytes : int;
  boot_timeout_s : float;  (** window for a spawned worker to accept *)
  drain_timeout_s : float;  (** shutdown window for in-flight replies *)
  probe_interval_s : float;  (** health-probe PING cadence; <= 0 disables *)
  probe_timeout_s : float;  (** unanswered-probe window before marking down *)
  make_replica : (shard:int -> index:int -> Shard.spec) option;
      (** builds the spec of a fresh replica; [None] disables REPLICA *)
  verbose : bool;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    shards = 3;
    respawn = false;
    max_connections = 256;
    max_line_bytes = 1024 * 1024;
    max_inbuf_bytes = 8 * 1024 * 1024;
    boot_timeout_s = 15.0;
    drain_timeout_s = 3.0;
    probe_interval_s = 2.0;
    probe_timeout_s = 15.0;
    make_replica = None;
    verbose = false;
  }

let shard_down_code = "ERR_SHARD_DOWN"

let shard_down fmt = Printf.ksprintf (fun m -> P.err_line (P.error ~code:shard_down_code m)) fmt

let shard_down_line shard = shard_down "shard %d is down" shard

let no_shards_line = shard_down "no shards are up"

(* --- pure reply merging -------------------------------------------------- *)

(* Fan-out merges are pure (json in, json out) so the unit tests cover
   them without sockets or processes. *)

(* GRAPHS: concatenate the per-shard lists and re-sort by (name,
   vertices, edges) — the exact order [Registry.list] yields in a
   single process, so the merged reply is byte-identical to one. *)
let merge_graphs parts =
  let entries =
    List.concat_map (function P.List items -> items | other -> [ other ]) parts
  in
  let key = function
    | P.Obj _ as o ->
        let str k = match Json.member k o with Some (P.Str s) -> s | _ -> "" in
        let int k = match Json.int_member k o with Some i -> i | None -> 0 in
        (str "name", int "vertices", int "edges")
    | _ -> ("", 0, 0)
  in
  P.List (List.sort (fun a b -> compare (key a) (key b)) entries)

(* MODELS: per-shard registries are disjoint under router-driven TRAIN
   (a model lives on the shard of its first source graph), so the merge
   is a plain union re-sorted by model name — the order [Models.list]
   yields in a single process. Duplicates (same name trained directly
   against two workers behind the router's back) keep their first
   occurrence. *)
let merge_models parts =
  let entries =
    List.concat_map (function P.List items -> items | other -> [ other ]) parts
  in
  let name = function
    | P.Obj _ as o -> ( match Json.member "name" o with Some (P.Str s) -> s | _ -> "")
    | _ -> ""
  in
  let sorted = List.stable_sort (fun a b -> compare (name a) (name b)) entries in
  let rec dedup = function
    | a :: b :: rest when name a = name b -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  P.List (dedup sorted)

(* STATS: the per-shard primaries' integer counters sum field-by-field
   (in the first primary's field order, so the merged layout is stable),
   "by_command" sums key-by-key, and non-summable fields (latency
   percentiles, stages, restored) stay per-member under "members".
   [protocol_version] is consensus, not a sum. Replica counters are
   reported per-member but excluded from the sums: a replica serves
   copies of its primary's graphs, so summing it would double-count
   registry-shaped fields like [graphs_registered]. *)
let merge_stats ~router ~shards ~parts =
  let primaries =
    List.filter_map
      (fun (_, role, j) -> match j with Some j when role = "primary" -> Some j | _ -> None)
      parts
  in
  let int_field j k = match Json.int_member k j with Some i -> i | None -> 0 in
  let summed =
    match primaries with
    | [] -> []
    | first :: _ ->
        let fields = match first with P.Obj fs -> fs | _ -> [] in
        List.filter_map
          (fun (k, v) ->
            match (k, v) with
            | "protocol_version", v -> Some (k, v)
            | "by_command", P.Obj _ ->
                let keys =
                  List.concat_map
                    (fun j ->
                      match Json.member "by_command" j with
                      | Some (P.Obj fs) -> List.map fst fs
                      | _ -> [])
                    primaries
                in
                let keys = List.sort_uniq compare keys in
                Some
                  ( k,
                    P.Obj
                      (List.map
                         (fun cmd ->
                           ( cmd,
                             P.Int
                               (List.fold_left
                                  (fun acc j ->
                                    match Json.member "by_command" j with
                                    | Some bc -> acc + int_field bc cmd
                                    | None -> acc)
                                  0 primaries) ))
                         keys) )
            | _, P.Int _ ->
                Some (k, P.Int (List.fold_left (fun acc j -> acc + int_field j k) 0 primaries))
            | _ -> None)
          fields
  in
  let member_json (shard, role, j) =
    P.Obj
      [
        ("shard", P.Int shard);
        ("role", P.Str role);
        ("up", P.Bool (j <> None));
        ("stats", match j with Some j -> j | None -> P.Null);
      ]
  in
  P.Obj
    (summed
    @ [
        ("shards", P.Int shards);
        ("router", router);
        ("members", P.List (List.map member_json parts));
      ])

(* SAVE / RESTORE: per-shard summaries listed under "shards", size
   counters summed at the top level. *)
let merge_snapshots parts =
  let sum k =
    List.fold_left
      (fun acc (_, j) -> acc + match Json.int_member k j with Some i -> i | None -> 0)
      0 parts
  in
  let entry (shard, j) =
    let fields = match j with P.Obj fs -> fs | other -> [ ("value", other) ] in
    P.Obj (("shard", P.Int shard) :: fields)
  in
  P.Obj
    [
      ("shards", P.List (List.map entry parts));
      ("bytes", P.Int (sum "bytes"));
      ("graphs", P.Int (sum "graphs"));
      ("colorings", P.Int (sum "colorings"));
      ("plans", P.Int (sum "plans"));
    ]

(* --- topology state ------------------------------------------------------ *)

type mstate =
  | Down
  | Connecting of int64  (* give-up deadline *)
  | Up of unit Conn.t  (* the worker connection; replies pair with [m_pending] *)

(* A client's state is the FIFO of replies it is owed, in request
   order. QUIT / EOF close it once the slots drain; a broken client
   discards any late replies. *)
type client = slot Queue.t Conn.t

and slot = {
  mutable s_reply : string option;
  s_client : client;
  s_cmd : string;
  s_t0 : int64;
}

type dest =
  | To_slot of slot  (* forward the worker's reply line verbatim *)
  | Write_primary of slot * mirror_group
      (* primary leg of a mirrored write: the reply forwards verbatim to
         the client and settles the group's deferred mirror failures *)
  | Part of agg * int  (* one piece of a fan-out *)
  | Mirror of mirror_group  (* replica leg of a mirrored write *)
  | Discard  (* reply checked for nothing (SHUTDOWN, replica RESTORE) *)
  | Replica_save of slot * Shard.spec  (* SAVE-on-primary step of REPLICA *)
  | Probe  (* router-originated health PING; the pong clears the timer *)

and agg = {
  a_slot : slot;
  a_parts : (int * string * string option) array;  (* shard, role, raw reply *)
  mutable a_remaining : int;
  a_finish : (int * string * string option) array -> string;
}

(* One LOAD / MUTATE / TRAIN fanned to a primary plus its replicas. The
   primary's verdict decides what a replica's ERR reply means: primary
   applied the write but the replica did not → the replica has silently
   diverged (a TRAIN it missed leaves later round-robined PREDICTs
   failing intermittently), so it is marked down — with [respawn] it
   reboots from its snapshot instead of serving as a diverged copy. Both
   rejected the request (bad recipe, invalid batch) → still in sync,
   nothing to do. Mirror replies can land before the primary's on
   another connection, so early failures are deferred until the
   primary's verdict arrives. *)
and mirror_group = {
  mutable mg_primary_ok : bool option;  (* None until the primary replies *)
  mutable mg_deferred : member list;  (* mirrors that failed before the verdict *)
}

and member = {
  m_spec : Shard.spec;
  mutable m_pid : int option;
  mutable m_state : mstate;
  mutable m_respawns : int;
  m_pending : dest Queue.t;
  mutable m_notify : slot option;  (* REPLICA caller waiting for first accept *)
  (* Health probing: the router PINGs each up member every
     [probe_interval_s]; workers answer strictly in request order, so
     the pong lands behind whatever real work is queued ahead of it.
     [m_probe_sent] is the start of the unanswered-probe window, and it
     slides forward while real (non-probe) requests are pending on the
     member — a TRAIN with big EPOCHS or a cold kwl3 legitimately holds
     the pong up for minutes, and a busy worker must never read as a
     wedged one. The [probe_timeout_s] clock therefore only runs while
     the probe is the member's whole queue: a worker with nothing to do
     but answer a PING, and hasn't. *)
  mutable m_probe_sent : int64 option;
  mutable m_last_probe : int64;  (* last probe send time, 0 = never *)
  mutable m_last_pong : int64;  (* last pong receive time, 0 = never *)
  mutable m_probes_sent : int;
  mutable m_pongs : int;
}

type group = {
  g_shard : int;
  mutable g_members : member list;  (* primary first, then replicas *)
  mutable g_rr : int;  (* read round-robin cursor *)
}

type t = {
  config : config;
  groups : group array;
  metrics : Metrics.t;
  env : Conn.env;  (* shared by the client and upstream connections *)
  stop_flag : bool Atomic.t;
  (* Model name → owning shard, learned when a TRAIN passes through: a
     model lives on the shard of its first source graph, and a worker
     can only featurize graphs it owns — so a PREDICT whose graph hashes
     elsewhere can never be served and is rejected up front with a
     routing error instead of the owning-graph shard's misleading
     ERR_UNKNOWN_MODEL. Models the router never saw TRAINed (snapshot
     restores, out-of-band fits) are absent and route by graph as
     before. *)
  model_shards : (string, int) Hashtbl.t;
}

let new_member ?notify spec =
  {
    m_spec = spec;
    m_pid = None;
    m_state = Down;
    m_respawns = 0;
    m_pending = Queue.create ();
    m_notify = notify;
    m_probe_sent = None;
    m_last_probe = 0L;
    m_last_pong = 0L;
    m_probes_sent = 0;
    m_pongs = 0;
  }

let log_to verbose s = if verbose then Printf.eprintf "glqld-router: %s\n%!" s

let log t fmt = Printf.ksprintf (log_to t.config.verbose) fmt

let create config specs =
  if config.shards <= 0 then invalid_arg "Router.create: shards must be positive";
  let groups =
    Array.init config.shards (fun i ->
        (* The primary heads the member list regardless of spec order. *)
        let primaries, replicas =
          List.filter (fun spec -> spec.Shard.sp_shard = i) specs
          |> List.partition (fun spec -> spec.Shard.sp_role = Shard.Primary)
        in
        if primaries = [] then
          invalid_arg (Printf.sprintf "Router.create: shard %d has no primary" i);
        let members = List.map (fun spec -> new_member spec) (primaries @ replicas) in
        { g_shard = i; g_members = members; g_rr = 0 })
  in
  let metrics = Metrics.create () in
  {
    config;
    groups;
    metrics;
    env = Conn.env ~metrics ~log:(log_to config.verbose);
    stop_flag = Atomic.make false;
    model_shards = Hashtbl.create 16;
  }

let stop t = Atomic.set t.stop_flag true

let all_members t =
  Array.to_list t.groups |> List.concat_map (fun g -> g.g_members)

let is_up m = match m.m_state with Up _ -> true | _ -> false

let role_label m = Shard.role_label m.m_spec.Shard.sp_role

(* --- client side --------------------------------------------------------- *)

(* Move completed head slots into the outbuf; later slots wait their turn. *)
let pump_client c =
  let moved = ref false in
  let rec go () =
    match Queue.peek_opt c.Conn.data with
    | Some { s_reply = Some line; _ } ->
        ignore (Queue.pop c.Conn.data);
        Conn.add_line c line;
        moved := true;
        go ()
    | _ -> ()
  in
  go ();
  if !moved then Conn.push c

let fill_slot t slot line =
  if slot.s_reply = None then begin
    slot.s_reply <- Some line;
    Metrics.record t.metrics ~command:slot.s_cmd ~ok:(P.is_ok line)
      ~latency_ns:(Int64.sub (Clock.now_ns ()) slot.s_t0);
    pump_client slot.s_client
  end

let new_slot c cmd t0 =
  let slot = { s_reply = None; s_client = c; s_cmd = cmd; s_t0 = t0 } in
  Queue.push slot c.Conn.data;
  slot

(* --- upstream side ------------------------------------------------------- *)

(* Worker replies are single lines but can be large (query tables up to
   the cell cap); the upstream framing caps are deliberately generous. *)
let upstream_line_cap = 256 * 1024 * 1024

let complete_part t agg i reply =
  let shard, role, _ = agg.a_parts.(i) in
  agg.a_parts.(i) <- (shard, role, reply);
  agg.a_remaining <- agg.a_remaining - 1;
  if agg.a_remaining = 0 then fill_slot t agg.a_slot (agg.a_finish agg.a_parts)

let fail_dest t shard dest =
  match dest with
  | To_slot slot -> fill_slot t slot (shard_down_line shard)
  | Write_primary (slot, mg) ->
      (* Dead primary: no verdict to audit mirrors against. *)
      mg.mg_primary_ok <- Some false;
      mg.mg_deferred <- [];
      fill_slot t slot (shard_down_line shard)
  | Part (agg, i) -> complete_part t agg i None
  | Mirror _ | Discard | Probe -> ()
  | Replica_save (slot, _) ->
      fill_slot t slot (shard_down "shard %d primary died during replica snapshot" shard)

(* Answer the REPLICA caller waiting on this member's first accept. *)
let notify t m line =
  Option.iter
    (fun slot ->
      m.m_notify <- None;
      fill_slot t slot line)
    m.m_notify

(* Launch a managed member (an externally managed one only gets the
   boot window) and start connecting to it. *)
let start_member t m =
  (match m.m_spec.Shard.sp_argv with
  | Some argv ->
      let pid = Shard.spawn argv in
      m.m_pid <- Some pid;
      log t "shard %d %s spawned as pid %d" m.m_spec.Shard.sp_shard (role_label m) pid
  | None -> ());
  m.m_state <-
    Connecting (Int64.add (Clock.now_ns ()) (Int64.of_float (t.config.boot_timeout_s *. 1e9)))

let rec member_down t m reason =
  (match m.m_state with Up u -> Conn.close_fd u.Conn.fd | _ -> ());
  m.m_state <- Down;
  let shard = m.m_spec.Shard.sp_shard in
  log t "shard %d %s down: %s (%d in-flight failed)" shard (role_label m) reason
    (Queue.length m.m_pending);
  Queue.iter (fun dest -> fail_dest t shard dest) m.m_pending;
  Queue.clear m.m_pending;
  m.m_probe_sent <- None;
  m.m_last_probe <- 0L;
  notify t m (shard_down "shard %d member died booting" shard);
  if t.config.respawn && m.m_spec.Shard.sp_argv <> None && m.m_respawns < 5 then begin
    m.m_respawns <- m.m_respawns + 1;
    log t "shard %d %s respawn attempt %d" shard (role_label m) m.m_respawns;
    start_member t m
  end

and flush_member t m =
  match m.m_state with
  | Up u ->
      Conn.flush u;
      if u.Conn.broken then member_down t m "write failed"
  | _ -> ()

let send_upstream t m line dest =
  match m.m_state with
  | Up u ->
      Conn.add_line u line;
      Queue.push dest m.m_pending;
      flush_member t m
  | _ -> fail_dest t m.m_spec.Shard.sp_shard dest

(* One nonblocking connection attempt per tick while Connecting. *)
let try_connect t m =
  match m.m_state with
  | Connecting deadline ->
      let sock = m.m_spec.Shard.sp_socket in
      let connected =
        if Sys.file_exists sock then begin
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () ->
              m.m_state <-
                Up
                  (Conn.wrap t.env ~max_line_bytes:upstream_line_cap
                     ~max_buf_bytes:upstream_line_cap fd ());
              log t "shard %d %s up on %s" m.m_spec.Shard.sp_shard (role_label m) sock;
              notify t m
                (P.ok
                   (P.Obj
                      [
                        ("shard", P.Int m.m_spec.Shard.sp_shard);
                        ("role", P.Str (role_label m));
                        ("socket", P.Str sock);
                      ]));
              true
          | exception Unix.Unix_error _ ->
              Conn.close_fd fd;
              false
        end
        else false
      in
      if (not connected) && Int64.compare (Clock.now_ns ()) deadline > 0 then begin
        m.m_state <- Down;
        log t "shard %d %s failed to come up within %.1fs" m.m_spec.Shard.sp_shard (role_label m)
          t.config.boot_timeout_s;
        notify t m (shard_down "shard %d replica failed to start" m.m_spec.Shard.sp_shard)
      end
  | _ -> ()

(* Reap exited children so a killed worker can't linger as a zombie. *)
let reap t =
  List.iter
    (fun m ->
      match m.m_pid with
      | Some pid -> (
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, _ -> m.m_pid <- None
          | exception Unix.Unix_error _ -> m.m_pid <- None)
      | None -> ())
    (all_members t)

(* --- request routing ----------------------------------------------------- *)

let quote_word w =
  if w <> "" && String.for_all (fun c -> c <> ' ' && c <> '\'' && c <> '"') w then w
  else "\"" ^ w ^ "\""

let pick_read g =
  match List.filter is_up g.g_members with
  | [] -> None
  | ups ->
      let m = List.nth ups (g.g_rr mod List.length ups) in
      g.g_rr <- g.g_rr + 1;
      Some m

let group_for t name = t.groups.(Shard.id_of_name ~shards:t.config.shards name)

let member_json m =
  P.Obj
    [
      ("shard", P.Int m.m_spec.Shard.sp_shard);
      ("role", P.Str (role_label m));
      ("socket", P.Str m.m_spec.Shard.sp_socket);
      ("pid", match m.m_pid with Some pid -> P.Int pid | None -> P.Null);
      ( "state",
        P.Str (match m.m_state with Up _ -> "up" | Connecting _ -> "connecting" | Down -> "down")
      );
      ("pending", P.Int (Queue.length m.m_pending));
      ("probes_sent", P.Int m.m_probes_sent);
      ("pongs", P.Int m.m_pongs);
      ( "last_pong_ms",
        if Int64.equal m.m_last_pong 0L then P.Null
        else P.Int (Int64.to_int (Int64.div (Int64.sub (Clock.now_ns ()) m.m_last_pong) 1_000_000L))
      );
    ]

let topology_json t =
  P.Obj
    [
      ("shards", P.Int t.config.shards);
      ("respawn", P.Bool t.config.respawn);
      ("members", P.List (List.map member_json (all_members t)));
    ]

let router_stats_json t =
  Metrics.to_json t.metrics
    ~extra:
      [
        ("protocol_version", P.Int P.protocol_version);
        ("role", P.Str "router");
        ("shards", P.Int t.config.shards);
      ]

(* Fan one request line (or a per-target rewrite of it) to [targets];
   down members contribute a [None] part immediately. *)
let fanout t slot targets ~line_for ~finish =
  match targets with
  | [] -> fill_slot t slot no_shards_line
  | _ ->
      let parts =
        Array.of_list
          (List.map (fun m -> (m.m_spec.Shard.sp_shard, role_label m, None)) targets)
      in
      let agg = { a_slot = slot; a_parts = parts; a_remaining = List.length targets; a_finish = finish } in
      List.iteri
        (fun i m ->
          match m.m_state with
          | Up _ -> send_upstream t m (line_for m) (Part (agg, i))
          | _ -> complete_part t agg i None)
        targets

(* The payload of a part's OK reply; None for ERR / absent / unparsable. *)
let payload_of r = Option.bind r P.payload

let finish_version parts =
  let oks = Array.to_list parts |> List.filter_map (fun (_, _, r) -> r) |> List.filter P.is_ok in
  match oks with
  | [] -> no_shards_line
  | first :: rest ->
      if List.for_all (( = ) first) rest then first
      else
        (* Mixed worker builds mid-upgrade: expose the disagreement. *)
        P.ok
          (P.Obj
             [
               ( "shards",
                 P.List
                   (Array.to_list parts
                   |> List.map (fun (shard, _, r) ->
                          P.Obj
                            [
                              ("shard", P.Int shard);
                              ("version", match payload_of r with Some j -> j | None -> P.Null);
                            ])) );
             ])

(* GRAPHS / MODELS: merge whatever the live shards answered. *)
let finish_merge merge parts =
  match Array.to_list parts |> List.filter_map (fun (_, _, r) -> payload_of r) with
  | [] -> no_shards_line
  | payloads -> P.ok (merge payloads)

let finish_stats t parts =
  let jparts =
    Array.to_list parts |> List.map (fun (shard, role, r) -> (shard, role, payload_of r))
  in
  P.ok (merge_stats ~router:(router_stats_json t) ~shards:t.config.shards ~parts:jparts)

(* All-or-nothing merges: the first failing part's line (already a
   classified ERR) forwards verbatim; otherwise [k] gets every part's
   (shard, payload). *)
let finish_all parts k =
  let first_err =
    Array.to_list parts
    |> List.find_map (fun (shard, _, r) ->
           match r with
           | None -> Some (shard_down_line shard)
           | Some line when not (P.is_ok line) -> Some line
           | Some _ -> None)
  in
  match first_err with
  | Some line -> line
  | None ->
      k
        (Array.to_list parts
        |> List.filter_map (fun (shard, _, r) -> Option.map (fun j -> (shard, j)) (payload_of r)))

(* Any failing shard fails a SAVE / RESTORE: a partial snapshot set
   silently missing a shard would restore into silent data loss. *)
let finish_snapshots parts = finish_all parts (fun payloads -> P.ok (merge_snapshots payloads))

(* Merge the sub-batch replies of a fanned batched PREDICT. Chunks are
   contiguous in request order, so forwarding the first failing part
   verbatim reproduces the single daemon's first-error semantics (its
   whole reply is the first failing graph's classified error); otherwise
   the per-member ["batch"] arrays concatenate back into request order
   and the envelope is rebuilt in the worker's exact field order, which
   round-trips byte-identically through {!Json}. *)
let finish_predict_batch model ~graphs parts =
  finish_all parts @@ fun parts ->
  let payloads = List.map snd parts in
  let field name p = match p with P.Obj fields -> List.assoc_opt name fields | _ -> None in
  let batch =
    List.concat_map
      (fun p -> match field "batch" p with Some (P.List items) -> items | _ -> [])
      payloads
  in
  if List.length batch <> graphs then
    P.err_line
      (P.error ~code:"ERR_INTERNAL"
         (Printf.sprintf "batched PREDICT merge produced %d of %d rows" (List.length batch)
            graphs))
  else
    let first name =
      match payloads with
      | p :: _ -> Option.value ~default:P.Null (field name p)
      | [] -> P.Null
    in
    P.ok
      (P.Obj
         [
           ("model", P.Str model);
           ("task", first "task");
           ("mode", first "mode");
           ("graphs", P.Int graphs);
           ("batch", P.List batch);
         ])

let primaries t = Array.to_list t.groups |> List.map (fun g -> List.hd g.g_members)

let start_replica t slot shard =
  if shard < 0 || shard >= t.config.shards then
    fill_slot t slot
      (P.err_line
         (P.error ~code:"ERR_BAD_ARG" (Printf.sprintf "no such shard %d (0..%d)" shard (t.config.shards - 1))))
  else
    match t.config.make_replica with
    | None ->
        fill_slot t slot
          (P.err_line (P.error ~code:"ERR_BAD_ARG" "replica spawning is not available here"))
    | Some make ->
        let g = t.groups.(shard) in
        let primary = List.hd g.g_members in
        if not (is_up primary) then fill_slot t slot (shard_down_line shard)
        else begin
          let index = List.length (List.tl g.g_members) + 1 in
          let spec = make ~shard ~index in
          match spec.Shard.sp_snapshot with
          | None ->
              fill_slot t slot
                (P.err_line (P.error ~code:"ERR_INTERNAL" "replica spec has no snapshot path"))
          | Some snap ->
              (* Snapshot shipping: SAVE on the primary straight into the
                 replica's boot snapshot path, then spawn the replica on
                 it. The reply waits until the replica accepts. *)
              send_upstream t primary
                (Printf.sprintf "SAVE %s" (quote_word snap))
                (Replica_save (slot, spec))
        end

let mirror_diverged = "mirrored write failed where the primary succeeded"

let dispatch_reply t m dest line =
  match dest with
  | To_slot slot -> fill_slot t slot line
  | Write_primary (slot, mg) ->
      fill_slot t slot line;
      let ok = P.is_ok line in
      mg.mg_primary_ok <- Some ok;
      let deferred = mg.mg_deferred in
      mg.mg_deferred <- [];
      if ok then List.iter (fun r -> if is_up r then member_down t r mirror_diverged) deferred
  | Part (agg, i) -> complete_part t agg i (Some line)
  | Mirror mg ->
      if not (P.is_ok line) then (
        match mg.mg_primary_ok with
        | Some true -> member_down t m mirror_diverged
        | Some false -> ()  (* the primary rejected it too: still in sync *)
        | None -> mg.mg_deferred <- m :: mg.mg_deferred)
  | Discard -> ()
  | Probe ->
      m.m_probe_sent <- None;
      m.m_last_pong <- Clock.now_ns ();
      m.m_pongs <- m.m_pongs + 1
  | Replica_save (slot, _) when not (P.is_ok line) -> fill_slot t slot line
  | Replica_save (slot, spec) ->
      (* The snapshot shipped: boot the replica on it; its first accept
         answers the REPLICA caller. *)
      let m = new_member ~notify:slot spec in
      start_member t m;
      let g = t.groups.(spec.Shard.sp_shard) in
      g.g_members <- g.g_members @ [ m ]

(* Router-local commands (TOPOLOGY / ROUTE / REPLICA) are deliberately
   *not* in {!Protocol}: the client protocol is v4 unchanged, and these
   are operator commands of the topology layer only. They claim their
   tokens through {!Protocol.parse_line}, so each line is parsed once. *)
type router_cmd = Topology | Route of string | Replica_of of int

let router_cmd_of_tokens = function
  | [ cmd ] when String.uppercase_ascii cmd = "TOPOLOGY" -> Some Topology
  | [ cmd; name ] when String.uppercase_ascii cmd = "ROUTE" -> Some (Route name)
  | [ cmd; shard ] when String.uppercase_ascii cmd = "REPLICA" -> (
      match int_of_string_opt shard with Some s -> Some (Replica_of s) | None -> None)
  | _ -> None

(* Route a write line to its owning group: the primary answers the
   client, live replicas apply the same line so the group stays in sync,
   and their replies are audited against the primary's verdict (see
   {!mirror_group}) instead of discarded. *)
let route_write t slot g line =
  let primary = List.hd g.g_members in
  let mg = { mg_primary_ok = None; mg_deferred = [] } in
  List.iter (fun m -> if is_up m then send_upstream t m line (Mirror mg)) (List.tl g.g_members);
  send_upstream t primary line (Write_primary (slot, mg))

(* Each shard snapshots to its own file: <path>.shardI when a path was
   given, the worker's own --snapshot default otherwise. *)
let per_shard cmd requested m =
  match requested with
  | Some path ->
      Printf.sprintf "%s %s" cmd
        (quote_word (Printf.sprintf "%s.shard%d" path m.m_spec.Shard.sp_shard))
  | None -> cmd

let handle_client_line t c line =
  let t0 = Clock.now_ns () in
  let parsed = P.parse_line ~operator:router_cmd_of_tokens line in
  (* STATS labels come from the grammar, so garbage cannot mint keys. *)
  let label =
    match parsed with
    | Ok (`Operator Topology) -> "TOPOLOGY"
    | Ok (`Operator (Route _)) -> "ROUTE"
    | Ok (`Operator (Replica_of _)) -> "REPLICA"
    | Ok (`Request { P.req; _ }) -> P.command_name req
    | Error _ -> "INVALID"
  in
  let slot = new_slot c label t0 in
  let local reply = fill_slot t slot reply in
  let bad_arg msg = local (P.err_line (P.error ~code:"ERR_BAD_ARG" msg)) in
  (* PREDICT needs the model AND its feature graphs on one worker: a
     worker can only featurize graphs it owns, and the model lives on
     the shard of its first TRAIN source. When the router saw that TRAIN
     it knows the model's shard, and a PREDICT whose graphs hash
     elsewhere is rejected up front with the constraint spelled out. *)
  let with_model_on model shard ~what k =
    match Hashtbl.find_opt t.model_shards model with
    | Some owner when owner <> shard ->
        bad_arg
          (Printf.sprintf
             "model %S lives on shard %d but %s to shard %d: PREDICT through the router needs \
              the graph co-hashed with the model's first TRAIN source"
             model owner what shard)
    | _ -> k ()
  in
  let read_from g =
    match pick_read g with
    | Some m -> send_upstream t m line (To_slot slot)
    | None -> local (shard_down_line g.g_shard)
  in
  match parsed with
  | Error msg -> local (P.err_line (P.error ~code:"ERR_PARSE" msg))
  | Ok (`Operator Topology) -> local (P.ok (topology_json t))
  | Ok (`Operator (Route name)) ->
      let shard = Shard.id_of_name ~shards:t.config.shards name in
      local
        (P.ok
           (P.Obj
              [
                ("graph", P.Str name);
                ("shard", P.Int shard);
                ("members", P.List (List.map member_json t.groups.(shard).g_members));
              ]))
  | Ok (`Operator (Replica_of shard)) -> start_replica t slot shard
  | Ok (`Request { P.req; _ }) -> (
      match req with
      | P.Hello ->
          local
            (P.ok
               (P.Obj
                  (Server.identity
                  @ [ ("role", P.Str "router"); ("shards", P.Int t.config.shards) ])))
      | P.Ping -> local (P.ok (P.Str "pong"))
      | P.Quit ->
          local (P.ok (P.Str "bye"));
          c.Conn.closing <- true
      | P.Shutdown ->
          List.iter
            (fun m -> if is_up m then send_upstream t m "SHUTDOWN" Discard)
            (all_members t);
          local (P.ok (P.Str "shutting down"));
          Atomic.set t.stop_flag true
      | P.Version ->
          fanout t slot (primaries t) ~line_for:(fun _ -> "VERSION") ~finish:finish_version
      | P.Graphs ->
          fanout t slot (primaries t) ~line_for:(fun _ -> "GRAPHS")
            ~finish:(finish_merge merge_graphs)
      | P.Stats ->
          fanout t slot (all_members t) ~line_for:(fun _ -> "STATS")
            ~finish:(fun parts -> finish_stats t parts)
      | P.Generators -> (
          match List.find_opt is_up (all_members t) with
          | Some m -> send_upstream t m line (To_slot slot)
          | None -> local no_shards_line)
      | P.Models ->
          fanout t slot (primaries t) ~line_for:(fun _ -> "MODELS")
            ~finish:(finish_merge merge_models)
      | P.Save requested ->
          (* Primaries only — a replica writing the same per-shard file
             would race it. *)
          fanout t slot (primaries t) ~line_for:(per_shard "SAVE" requested)
            ~finish:finish_snapshots
      | P.Restore requested ->
          (* Replicas restore the same per-shard file so the whole shard
             group converges on the restored state. *)
          let line_for = per_shard "RESTORE" requested in
          List.iter
            (fun m ->
              if m.m_spec.Shard.sp_role <> Shard.Primary && is_up m then
                send_upstream t m (line_for m) Discard)
            (all_members t);
          fanout t slot (primaries t) ~line_for ~finish:finish_snapshots
      | P.Predict_batch (model, graphs) -> (
          (* Batched PREDICT fans the read across the owning group's
             live members: the graph list splits into contiguous chunks,
             each member answers its sub-batch with the same wire form,
             and the router concatenates the ["batch"] arrays back into
             request order (see {!finish_predict_batch}). Every graph
             must co-hash with the model, like single PREDICT. *)
          let shards_hit =
            List.sort_uniq compare
              (List.map (fun g -> Shard.id_of_name ~shards:t.config.shards g) graphs)
          in
          match shards_hit with
          | [] -> bad_arg "PREDICT ON: empty graph list"
          | _ :: _ :: _ ->
              bad_arg
                (Printf.sprintf
                   "batched PREDICT through the router needs every graph on one shard, but these \
                    hash to shards %s: co-hash the graph names with the model's first TRAIN \
                    source"
                   (String.concat ", " (List.map string_of_int shards_hit)))
          | [ shard ] -> (
              let g = t.groups.(shard) in
              with_model_on model shard ~what:"the graphs hash" @@ fun () ->
              match List.filter is_up g.g_members with
              | [] -> local (shard_down_line shard)
              | [ _ ] ->
                  (* One live member: forward verbatim (keeps any
                     TRACE suffix, trivially byte-equal). *)
                  read_from g
              | ups ->
                  let n = List.length graphs in
                  let k = min (List.length ups) n in
                  let chunk_size = (n + k - 1) / k in
                  let parts =
                    List.init ((n + chunk_size - 1) / chunk_size) (fun j ->
                        List.filteri (fun i _ -> i / chunk_size = j) graphs)
                  in
                  let targets = List.filteri (fun i _ -> i < List.length parts) ups in
                  let assignments = List.combine targets parts in
                  fanout t slot targets
                    ~line_for:(fun m ->
                      Printf.sprintf "PREDICT %s ON %s" (quote_word model)
                        (quote_word (String.concat "," (List.assq m assignments))))
                    ~finish:(finish_predict_batch model ~graphs:n)))
      | _ -> (
          (* Every other command is keyed by one graph, and the protocol's
             classification says how: a write (LOAD / MUTATE / TRAIN by
             its first source) goes to the primary and is mirrored to the
             replicas; a read round-robins across the live group. *)
          match P.classify req with
          | { P.graph = None; _ } -> bad_arg (P.command_name req ^ ": no graph to route by")
          | { P.graph = Some name; writes } -> (
              let g = group_for t name in
              match req with
              | P.Train spec when writes ->
                  Hashtbl.replace t.model_shards spec.P.t_model g.g_shard;
                  route_write t slot g line
              | _ when writes -> route_write t slot g line
              | P.Predict (model, _, _) ->
                  with_model_on model g.g_shard ~what:(Printf.sprintf "graph %S hashes" name)
                    (fun () -> read_from g)
              | _ -> read_from g)))

(* --- select loop --------------------------------------------------------- *)

(* Block until every member is up (or its boot deadline passed) before
   opening the front socket: a client that can connect should find the
   topology serving, not racing its own boot. *)
let wait_boot t =
  let rec loop () =
    List.iter (fun m -> try_connect t m) (all_members t);
    if List.exists (fun m -> match m.m_state with Connecting _ -> true | _ -> false) (all_members t)
    then begin
      ignore (Unix.select [] [] [] 0.05);
      loop ()
    end
  in
  loop ()

let terminate_children t =
  List.iter
    (fun m ->
      match m.m_pid with
      | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      | None -> ())
    (all_members t);
  let deadline = Clock.deadline_after 10.0 in
  let rec wait_all () =
    reap t;
    if List.exists (fun m -> m.m_pid <> None) (all_members t) then
      if Clock.expired deadline then
        List.iter
          (fun m ->
            match m.m_pid with
            | Some pid ->
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                m.m_pid <- None
            | None -> ())
          (all_members t)
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait_all ()
      end
  in
  wait_all ()

let serve t =
  Conn.with_signals t.stop_flag @@ fun () ->
  List.iter (start_member t) (all_members t);
  wait_boot t;
  let front =
    Conn.front t.env ~name:"router" ~socket_path:t.config.socket_path
      ~tcp_port:t.config.tcp_port ~max_connections:t.config.max_connections
      ~max_line_bytes:t.config.max_line_bytes ~max_inbuf_bytes:t.config.max_inbuf_bytes
  in
  let upstreams () =
    List.filter_map (fun m -> match m.m_state with Up u -> Some (m, u) | _ -> None) (all_members t)
  in
  let read_member m u =
    match Conn.receive u with
    | Error _ -> member_down t m "reply overflowed the framing caps"
    | Ok lines ->
        List.iter
          (fun line ->
            match Queue.take_opt m.m_pending with
            | Some dest -> dispatch_reply t m dest line
            | None -> log t "shard %d sent an unsolicited line" m.m_spec.Shard.sp_shard)
          lines;
        if u.Conn.broken then member_down t m "read failed"
        else if u.Conn.closing then member_down t m "EOF"
  in
  let one_tick ~accepting =
    let ups = upstreams () in
    let readable, writable =
      Conn.step front ~accepting ~data:Queue.create ~on_line:(handle_client_line t)
        ~read:(List.map (fun (_, u) -> u.Conn.fd) ups)
        ~write:
          (List.filter_map
             (fun (_, u) -> if Buffer.length u.Conn.out > 0 then Some u.Conn.fd else None)
             ups)
        0.25
    in
    (* A member can go down while earlier fds are handled; look each one
       up again so a closed connection is never touched. *)
    let on_ready fds f =
      List.iter
        (fun fd ->
          match List.find_opt (fun (_, u) -> u.Conn.fd = fd) (upstreams ()) with
          | Some (m, u) -> f m u
          | None -> ())
        fds
    in
    on_ready writable (fun m _ -> flush_member t m);
    on_ready readable read_member;
    reap t;
    List.iter (fun m -> try_connect t m) (all_members t);
    (* Health probes: PING each up member on a cadence and mark it down
       when the oldest pong is overdue. Probing pauses during the drain
       phase so probe destinations can't keep the drain loop spinning. *)
    if accepting && t.config.probe_interval_s > 0.0 then begin
      let now = Clock.now_ns () in
      let interval_ns = Int64.of_float (t.config.probe_interval_s *. 1e9) in
      let timeout_ns = Int64.of_float (t.config.probe_timeout_s *. 1e9) in
      List.iter
        (fun m ->
          if is_up m then
            match m.m_probe_sent with
            | Some sent ->
                (* In-order workers queue the pong behind real work, so
                   an unanswered probe only counts against the timeout
                   while nothing else is pending: slide the window
                   whenever the member is busy with actual requests. *)
                let busy =
                  Queue.fold
                    (fun acc d -> acc || match d with Probe -> false | _ -> true)
                    false m.m_pending
                in
                if busy then m.m_probe_sent <- Some now
                else if Int64.compare (Int64.sub now sent) timeout_ns > 0 then
                  member_down t m
                    (Printf.sprintf "health probe unanswered for %.1fs" t.config.probe_timeout_s)
            | None ->
                if Int64.compare (Int64.sub now m.m_last_probe) interval_ns >= 0 then begin
                  m.m_probe_sent <- Some now;
                  m.m_last_probe <- now;
                  m.m_probes_sent <- m.m_probes_sent + 1;
                  send_upstream t m "PING" Probe
                end)
        (all_members t)
    end;
    (* Reap clients whose replies are fully delivered. *)
    Conn.reap front ~finished:(fun c ->
        c.Conn.broken || (c.Conn.closing && Queue.is_empty c.Conn.data))
  in
  while not (Atomic.get t.stop_flag) do
    one_tick ~accepting:true
  done;
  (* Drain: stop accepting, give in-flight shard replies a bounded window
     to land in their slots and flush, then fail the stragglers. *)
  let drain_deadline = Clock.deadline_after t.config.drain_timeout_s in
  let in_flight () = List.exists (fun m -> not (Queue.is_empty m.m_pending)) (all_members t) in
  while in_flight () && not (Clock.expired drain_deadline) do
    one_tick ~accepting:false
  done;
  List.iter
    (fun m ->
      Queue.iter (fun dest -> fail_dest t m.m_spec.Shard.sp_shard dest) m.m_pending;
      Queue.clear m.m_pending)
    (all_members t);
  Conn.close front ~drain_s:2.0;
  List.iter (fun (_, u) -> Conn.close_fd u.Conn.fd) (upstreams ());
  terminate_children t;
  let served = Metrics.requests t.metrics in
  Printf.eprintf "glqld-router: routed %d requests (%d errors), shutting down cleanly\n%!" served
    (Metrics.errors t.metrics);
  served
