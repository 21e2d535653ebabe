(* End-to-end test of the glqld daemon and glql_client, driven through
   real processes and a real Unix-domain socket:

     test_e2e_server <glqld.exe> <glql_client.exe>

   Starts the daemon, registers a graph, runs the same GEL query from two
   CONCURRENT client processes, and asserts: both replies are identical
   and match direct Glql_gel evaluation, STATS shows a plan-cache hit
   (the second of the two concurrent identical queries), and SIGTERM
   produces a clean exit with a metrics dump. *)

module Expr = Glql_gel.Expr
module Parser = Glql_gel.Parser
module Registry = Glql_server.Registry
module Graph = Glql_graph.Graph
module P = Glql_server.Protocol

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok - %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL - %s\n%!" name
  end

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* First integer following "<field>": in a one-line JSON dump. *)
let json_int_field text field =
  let tag = "\"" ^ field ^ "\":" in
  let tl = String.length tag and n = String.length text in
  let rec find i = if i + tl > n then None else if String.sub text i tl = tag then Some (i + tl) else find (i + 1) in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while !stop < n && (text.[!stop] = '-' || (text.[!stop] >= '0' && text.[!stop] <= '9')) do
        incr stop
      done;
      int_of_string_opt (String.sub text start (!stop - start))

let spawn exe args ~stdout_file =
  let out_fd =
    Unix.openfile stdout_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd Unix.stderr in
  Unix.close out_fd;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Some code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> None

let () =
  let glqld, client =
    match Sys.argv with
    | [| _; d; c |] -> (d, c)
    | _ ->
        prerr_endline "usage: test_e2e_server <glqld.exe> <glql_client.exe>";
        exit 2
  in
  let dir = Filename.temp_file "glqld_e2e" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "glqld.sock" in
  let metrics_file = Filename.concat dir "metrics.json" in
  let snapshot_file = Filename.concat dir "glqld.glqs" in
  let out i = Filename.concat dir (Printf.sprintf "out%d.txt" i) in

  let wait_for_socket () =
    let deadline = Unix.gettimeofday () +. 15.0 in
    while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
      ignore (Unix.select [] [] [] 0.05)
    done
  in

  (* Start the daemon and wait for its socket to appear. *)
  let daemon =
    spawn glqld
      [ "--socket"; sock; "--metrics-file"; metrics_file; "--snapshot"; snapshot_file ]
      ~stdout_file:(Filename.concat dir "daemon.out")
  in
  wait_for_socket ();
  check "daemon socket appears" (Sys.file_exists sock);

  let run_client ?(n = 0) args =
    let pid = spawn client ([ "--socket"; sock ] @ args) ~stdout_file:(out n) in
    let code = wait_exit pid in
    (code, read_file (out n))
  in

  (* Register a graph. *)
  let code, reply = run_client [ "LOAD"; "g"; "petersen" ] in
  check "LOAD exits 0" (code = Some 0);
  check "LOAD reply ok" (contains ~needle:"\"vertices\":10" reply);

  (* The same query from two concurrent client processes. *)
  let src = "agg_sum{x2}([1] | E(x1,x2))" in
  let query_args = [ "QUERY"; "g"; src ] in
  let pid1 = spawn client ([ "--socket"; sock ] @ query_args) ~stdout_file:(out 1) in
  let pid2 = spawn client ([ "--socket"; sock ] @ query_args) ~stdout_file:(out 2) in
  let code1 = wait_exit pid1 and code2 = wait_exit pid2 in
  check "concurrent client 1 exits 0" (code1 = Some 0);
  check "concurrent client 2 exits 0" (code2 = Some 0);
  let reply1 = read_file (out 1) and reply2 = read_file (out 2) in
  (* The cache tag legitimately differs between the two (one miss, one
     hit); everything else — in particular the values — must be equal. *)
  let normalize s =
    let needle = "\"plan_cache\":\"hit\"" and repl = "\"plan_cache\":\"miss\"" in
    let nl = String.length needle and sl = String.length s in
    let buf = Buffer.create sl in
    let i = ref 0 in
    while !i < sl do
      if !i + nl <= sl && String.sub s !i nl = needle then begin
        Buffer.add_string buf repl;
        i := !i + nl
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  check "concurrent replies identical" (normalize reply1 = normalize reply2 && String.length reply1 > 0);
  check "one of the two concurrent queries hit the plan cache"
    (contains ~needle:"\"plan_cache\":\"hit\"" (reply1 ^ reply2)
    && contains ~needle:"\"plan_cache\":\"miss\"" (reply1 ^ reply2));

  (* Replies match direct in-process Glql_gel evaluation. *)
  let g = match Registry.graph_of_spec "petersen" with Ok g -> g | Error e -> failwith e in
  let table = Expr.eval g (Parser.parse src) in
  let expected =
    P.json_to_string
      (P.List
         (Array.to_list
            (Array.map
               (fun v -> P.List (Array.to_list (Array.map (fun x -> P.Float x) v)))
               table.Expr.tdata)))
  in
  check "replies match direct evaluation" (contains ~needle:("\"values\":" ^ expected) reply1);

  (* The second identical query must have been a plan-cache hit. *)
  let _, stats = run_client ~n:3 [ "STATS" ] in
  check "STATS replies ok" (P.is_ok (String.trim stats));
  check "plan cache saw a hit"
    (match json_int_field stats "plan_hits" with Some h -> h >= 1 | None -> false);
  check "exactly one plan compiled"
    (match json_int_field stats "plan_misses" with Some m -> m = 1 | None -> false);

  (* EXPLAIN over the wire: the warm-cache query reports every canonical
     stage, cache-hit attribution, and stage timings that sum to the
     reported total. *)
  let _, explain = run_client ~n:4 [ "EXPLAIN"; "g"; src ] in
  check "EXPLAIN replies ok" (P.is_ok (String.trim explain));
  List.iter
    (fun stage ->
      check
        (Printf.sprintf "EXPLAIN reports stage %s" stage)
        (contains ~needle:(Printf.sprintf "\"stage\":\"%s\"" stage) explain))
    [ "parse"; "normalize"; "cache_lookup"; "compile"; "execute"; "materialize" ];
  check "EXPLAIN attributes the plan-cache hit"
    (contains ~needle:"\"plan_cache\":\"hit\"" explain && contains ~needle:"\"cached\":true" explain);
  (let float_after key s =
     let tag = "\"" ^ key ^ "\":" in
     let tl = String.length tag and n = String.length s in
     let rec find i =
       if i + tl > n then None else if String.sub s i tl = tag then Some (i + tl) else find (i + 1)
     in
     match find 0 with
     | None -> None
     | Some start ->
         let stop = ref start in
         let is_num c =
           (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
         in
         while !stop < n && is_num s.[!stop] do incr stop done;
         float_of_string_opt (String.sub s start (!stop - start))
   in
   let rec stage_ms acc s =
     match float_after "ms" s with
     | None -> List.rev acc
     | Some f -> (
         match String.index_opt s '}' with
         | None -> List.rev (f :: acc)
         | Some j -> stage_ms (f :: acc) (String.sub s (j + 1) (String.length s - j - 1)))
   in
   (* Scan stage objects one '{...}' at a time so "total_ms" is skipped. *)
   match (float_after "total_ms" explain, String.index_opt explain '[') with
   | Some total, Some open_bracket ->
       let stages_part =
         String.sub explain open_bracket (String.length explain - open_bracket)
       in
       let ms = stage_ms [] stages_part in
       let sum = List.fold_left ( +. ) 0.0 ms in
       check "EXPLAIN has a stage breakdown" (List.length ms >= 6);
       check
         (Printf.sprintf "EXPLAIN stage timings (%g ms) sum to total (%g ms)" sum total)
         (Float.abs (sum -. total) < 1e-6)
   | _ -> check "EXPLAIN carries total_ms and stage timings" false);

  (* TRACE option over the wire: the reply carries the span list. *)
  let _, traced = run_client ~n:5 [ "QUERY"; "g"; src; "TRACE" ] in
  check "TRACE reply ok" (P.is_ok (String.trim traced));
  check "TRACE reply carries spans"
    (contains ~needle:"\"trace\":[" traced && contains ~needle:"\"name\":\"request\"" traced);

  (* A server-side error makes the client exit nonzero, with the ERR
     reply on stdout. *)
  let err_code, err_reply = run_client ~n:6 [ "QUERY"; "nosuchgraph"; src ] in
  check "client exits nonzero on ERR reply" (err_code = Some 1);
  check "ERR reply printed"
    (String.length err_reply >= 3 && String.sub (String.trim err_reply) 0 3 = "ERR");

  (* Colour the graph so the snapshot carries a colouring too. *)
  let _, wl_warm = run_client ~n:7 [ "WL"; "g" ] in
  check "WL replies ok" (P.is_ok (String.trim wl_warm));
  let signature_of reply =
    let key = "\"signature\":\"" in
    let kl = String.length key and n = String.length reply in
    let rec find i =
      if i + kl > n then ""
      else if String.sub reply i kl = key then (
        match String.index_from_opt reply (i + kl) '"' with
        | Some stop -> String.sub reply (i + kl) (stop - i - kl)
        | None -> "")
      else find (i + 1)
    in
    find 0
  in

  (* Protocol v6 over the wire: HELLO advertises it, read-path replies
     stay byte-compatible with v4 (no new fields leak into them). *)
  let _, hello = run_client ~n:11 [ "HELLO" ] in
  check "HELLO reports protocol v6" (contains ~needle:"\"protocol_version\":6" hello);
  check "read replies carry no v5 mutation fields"
    ((not (contains ~needle:"generation" reply1))
    && (not (contains ~needle:"generation" wl_warm))
    && not (contains ~needle:"applied" reply1));

  (* MUTATE through glql_client --mutate: one atomic batch from the
     request words, applied before the snapshot so the post-mutation
     state is what persists. *)
  let _, _ = run_client ~n:12 [ "LOAD"; "m"; "cycle9" ] in
  let mut_code, mut_reply =
    run_client ~n:13 [ "--mutate"; "m"; "ADD_EDGES"; "0"; "2"; "SET_LABEL"; "0"; "5.0" ]
  in
  check "--mutate exits 0" (mut_code = Some 0);
  let gen1 = json_int_field mut_reply "generation" in
  check "--mutate reports a generation" (gen1 <> None);
  check "--mutate reports applied counts"
    (contains ~needle:"\"applied\":{\"add_edges\":1,\"del_edges\":0,\"set_labels\":1}" mut_reply);
  (* Replaying the same edge add is rejected per-op, not per-batch: the
     SET_LABEL half still applies, so the generation advances again. *)
  let _, mut2 =
    run_client ~n:14 [ "--mutate"; "m"; "ADD_EDGES"; "0"; "2"; "SET_LABEL"; "0"; "5.0" ]
  in
  check "duplicate edge add rejected with a v4 code"
    (contains ~needle:"\"code\":\"ERR_BAD_ARG\"" mut2
    && contains ~needle:"\"applied\":{\"add_edges\":0,\"del_edges\":0,\"set_labels\":1}" mut2);
  check "partially applied batch still advances the generation"
    (match (gen1, json_int_field mut2 "generation") with
    | Some a, Some b -> b > a
    | _ -> false);
  (* Reads on the mutated graph see the chord. *)
  let gm = match Registry.graph_of_spec "cycle9" with Ok g -> g | Error e -> failwith e in
  let gm' =
    Graph.mutate gm ~add_edges:[ (0, 2) ] ~del_edges:[] ~set_labels:[ (0, [| 5.0 |]) ]
  in
  let m_expected =
    let table = Expr.eval gm' (Parser.parse src) in
    P.json_to_string
      (P.List
         (Array.to_list
            (Array.map
               (fun v -> P.List (Array.to_list (Array.map (fun x -> P.Float x) v)))
               table.Expr.tdata)))
  in
  let _, m_reply = run_client ~n:15 [ "QUERY"; "m"; src ] in
  check "post-mutate query sees the chord"
    (contains ~needle:("\"values\":" ^ m_expected) m_reply);

  (* Model serving (protocol v6): FEATURIZE via the --featurize flag,
     TRAIN via --train, PREDICT via --predict. The recipe avoids wl
     one-hot so its widths are stable across the later mutation and
     staleness (not ERR_SCHEMA_MISMATCH) is what the final check sees. *)
  let recipe = "deg;hom3;label" in
  let feat_code, feat = run_client ~n:17 [ "--featurize"; "g"; recipe ] in
  check "--featurize exits 0" (feat_code = Some 0);
  check "FEATURIZE reports the matrix shape"
    (contains ~needle:"\"rows\":10" feat
    && contains ~needle:"\"cols\":5" feat
    && contains ~needle:"\"digest\":\"" feat);
  let train_code, train_reply =
    run_client ~n:18 [ "--train"; "clf"; "ON"; "g"; "WITH"; recipe; "TARGET"; src; "EPOCHS"; "20" ]
  in
  check "--train exits 0" (train_code = Some 0);
  check "TRAIN reports losses and metrics"
    (contains ~needle:"\"loss_final\":" train_reply
    && contains ~needle:"\"train_metric\":" train_reply
    && contains ~needle:"\"schema_hash\":\"" train_reply);
  let _, models_reply = run_client ~n:19 [ "MODELS" ] in
  check "MODELS lists the trained model" (contains ~needle:"\"name\":\"clf\"" models_reply);
  let pred_code, pred1 = run_client ~n:20 [ "--predict"; "clf"; "g"; "0"; "1"; "2" ] in
  check "--predict exits 0" (pred_code = Some 0);
  check "PREDICT is not stale on the source generation" (contains ~needle:"\"stale\":false" pred1);
  check "PREDICT of an unknown model is classified"
    (let _, r = run_client ~n:21 [ "PREDICT"; "nosuch"; "g" ] in
     contains ~needle:"ERR_UNKNOWN_MODEL" r);
  check "FEATURIZE with a bad recipe is classified"
    (let _, r = run_client ~n:22 [ "FEATURIZE"; "g"; "deg;bogus7" ] in
     contains ~needle:"ERR_BAD_RECIPE" r);

  (* SIGTERM: clean exit, socket unlinked, metrics dumped, snapshot
     written (the daemon was started with --snapshot). *)
  Unix.kill daemon Sys.sigterm;
  let daemon_code = wait_exit daemon in
  check "SIGTERM exits cleanly" (daemon_code = Some 0);
  check "socket unlinked on shutdown" (not (Sys.file_exists sock));
  check "metrics file written" (Sys.file_exists metrics_file);
  let metrics = if Sys.file_exists metrics_file then read_file metrics_file else "" in
  check "metrics count the requests"
    (match json_int_field metrics "requests" with Some r -> r >= 4 | None -> false);
  check "metrics include cache stats" (contains ~needle:"\"plan_hits\"" metrics);
  check "snapshot written on shutdown" (Sys.file_exists snapshot_file);

  (* Warm restart: a new daemon restoring the snapshot must answer the
     same query from its plan cache and the same WL request from its
     colouring cache, with identical results and no recomputation. *)
  let metrics_file2 = Filename.concat dir "metrics2.json" in
  let daemon2 =
    spawn glqld
      [ "--socket"; sock; "--metrics-file"; metrics_file2; "--snapshot"; snapshot_file ]
      ~stdout_file:(Filename.concat dir "daemon2.out")
  in
  wait_for_socket ();
  check "restarted daemon socket appears" (Sys.file_exists sock);
  let warm_code, warm_reply = run_client ~n:8 [ "QUERY"; "g"; src ] in
  check "restored graph answers without a LOAD" (warm_code = Some 0);
  check "restored query is a plan-cache hit" (contains ~needle:"\"plan_cache\":\"hit\"" warm_reply);
  check "restored query values match the first life"
    (contains ~needle:("\"values\":" ^ expected) warm_reply);
  let _, wl_restored = run_client ~n:9 [ "WL"; "g" ] in
  check "restored WL is a coloring-cache hit"
    (contains ~needle:"\"coloring_cache\":\"hit\"" wl_restored);
  check "restored WL signature identical"
    (signature_of wl_warm <> "" && signature_of wl_warm = signature_of wl_restored);
  let _, stats2 = run_client ~n:10 [ "STATS" ] in
  check "restarted STATS reports the restored section"
    (contains ~needle:"\"restored\":{" stats2 && contains ~needle:snapshot_file stats2);
  check "restarted STATS counts the restored graph"
    (match json_int_field stats2 "graphs_registered" with Some g -> g >= 1 | None -> false);
  (* The snapshot carried the post-mutation state of m: the restored
     graph still has the chord and the relabelled vertex. *)
  let _, m_restored = run_client ~n:16 [ "QUERY"; "m"; src ] in
  check "restored mutated graph keeps the chord"
    (contains ~needle:("\"values\":" ^ m_expected) m_restored);
  (* The snapshot carried the model registry: the rebooted daemon
     answers PREDICT warm and byte-identically, and a MUTATE of the
     source graph flips the reply to stale (same schema, new
     generation). *)
  let _, pred2 = run_client ~n:23 [ "--predict"; "clf"; "g"; "0"; "1"; "2" ] in
  check "restored PREDICT is byte-identical" (pred1 = pred2 && String.length pred2 > 0);
  check "restarted STATS counts the restored model"
    (match json_int_field stats2 "models_registered" with Some m -> m >= 1 | None -> false);
  let _, _ = run_client ~n:24 [ "--mutate"; "g"; "ADD_EDGES"; "0"; "2" ] in
  let _, pred3 = run_client ~n:25 [ "PREDICT"; "clf"; "g"; "0" ] in
  check "post-mutate PREDICT reports stale" (contains ~needle:"\"stale\":true" pred3);
  Unix.kill daemon2 Sys.sigterm;
  check "restarted daemon exits cleanly" (wait_exit daemon2 = Some 0);

  (* glql_client resends a one-shot request after a dropped connection
     only when it writes nothing (Protocol.classify), whichever way the
     request was spelled. A stub server answers HELLO, reads the
     request, then hangs up; it counts what arrives. *)
  let stub_sock = Filename.concat dir "stub.sock" in
  let via_stub n args =
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listener (Unix.ADDR_UNIX stub_sock);
    Unix.listen listener 8;
    let pid = spawn client ([ "--socket"; stub_sock ] @ args) ~stdout_file:(out n) in
    let seen = ref [] in
    let rec serve () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          (match Unix.select [ listener ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ ->
              let fd, _ = Unix.accept listener in
              let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
              (try
                 ignore (input_line ic);
                 Printf.fprintf oc "OK {\"protocol_version\":%d}\n%!" P.protocol_version;
                 seen := input_line ic :: !seen
               with End_of_file | Sys_error _ -> ());
              Unix.close fd);
          serve ()
      | _, Unix.WEXITED code -> Some code
      | _, _ -> None
    in
    let code = serve () in
    Unix.close listener;
    Sys.remove stub_sock;
    (code, List.rev !seen)
  in
  List.iteri
    (fun i (args, expected) ->
      let label = String.concat " " args in
      let code, seen = via_stub (30 + i) args in
      check (Printf.sprintf "dropped [%s] exits 1" label) (code = Some 1);
      check
        (Printf.sprintf "dropped [%s] arrives %d time(s)" label expected)
        (List.length seen = expected && List.for_all (fun l -> l = List.hd seen) seen))
    [
      ([ "MUTATE"; "g"; "ADD_EDGES"; "0"; "1" ], 1);
      ([ "--mutate"; "g"; "ADD_EDGES"; "0"; "1" ], 1);
      ([ "LOAD"; "g"; "petersen" ], 1);
      ([ "--train"; "m"; "ON"; "g"; "WITH"; "deg"; "TARGET"; src ], 1);
      ([ "PING" ], 2);
      ([ "--predict"; "m"; "g" ], 2);
    ];

  (* Tidy up the scratch directory. *)
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.printf "%d end-to-end check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "all end-to-end checks passed"
