(* Determinism tests for the multicore execution layer.

   This suite is its own executable, run twice by dune (GLQL_DOMAINS=1 and
   GLQL_DOMAINS=4, see test/dune), so both the sequential fallback and a
   genuinely parallel pool are exercised on every `dune runtest`.  Each
   test compares a kernel under the ambient pool size against the same
   kernel forced through [Pool.sequential]; since the reference never
   depends on the pool, passing under both sizes proves size-1 and size-4
   outputs are identical — colours and counts exactly, floats bit for
   bit. *)

module Pool = Glql_util.Pool
module Rng = Glql_util.Rng
module Mat = Glql_tensor.Mat
module Generators = Glql_graph.Generators
module Graph = Glql_graph.Graph
module Cr = Glql_wl.Color_refinement
module Tree = Glql_hom.Tree
module Count = Glql_hom.Count
module Propagate = Glql_gnn.Propagate
module Model = Glql_gnn.Model
module Dataset = Glql_learning.Dataset
module Erm = Glql_learning.Erm

let case name f = Alcotest.test_case name `Quick f

let qtest ?(count = 30) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

let seed_arb = QCheck.(int_bound 1_000_000)

let random_graph seed ~n ~p = Generators.erdos_renyi (Rng.create seed) ~n ~p

let random_mat seed rows cols =
  let rng = Rng.create seed in
  Mat.init rows cols (fun _ _ -> Rng.gaussian rng)

(* Exact float matrix equality (zero tolerance). *)
let mat_eq a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      if not (Float.equal (Mat.get a i j) (Mat.get b i j)) then ok := false
    done
  done;
  !ok

let float_array_eq a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* --- pool combinators --------------------------------------------------- *)

let test_size_env () =
  match Sys.getenv_opt "GLQL_DOMAINS" with
  | Some s -> Alcotest.(check int) "size honours GLQL_DOMAINS" (int_of_string s) (Pool.size ())
  | None -> ()

let test_parallel_for () =
  let n = 1000 in
  let par = Array.make n 0 and seq = Array.make n 0 in
  Pool.parallel_for ~n (fun i -> par.(i) <- (i * i) + 1);
  for i = 0 to n - 1 do
    seq.(i) <- (i * i) + 1
  done;
  Alcotest.(check bool) "parallel_for fills every slot" true (par = seq)

let test_parallel_map () =
  let a = Array.init 257 (fun i -> i - 100) in
  Alcotest.(check bool)
    "map matches Array.map" true
    (Pool.parallel_map_array (fun x -> (x * 7) mod 13) a = Array.map (fun x -> (x * 7) mod 13) a)

let test_reduce_order () =
  (* An order-sensitive float combine: only index-order reduction gives
     the sequential fold's bits. *)
  let n = 500 in
  let map i = Float.of_int (i + 1) /. 3.0 in
  let combine acc x = (acc *. 0.75) +. x in
  let par = Pool.parallel_reduce ~n ~init:1.0 ~map ~combine in
  let seq = ref 1.0 in
  for i = 0 to n - 1 do
    seq := combine !seq (map i)
  done;
  Alcotest.(check bool) "reduce combines in index order" true (Float.equal par !seq)

exception Boom

let test_exception () =
  let raised =
    try
      Pool.parallel_for ~n:64 (fun i -> if i = 37 then raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "exceptions propagate to the caller" true raised

let test_nested () =
  let n = 16 in
  let out = Array.make_matrix n n 0 in
  Pool.parallel_for ~n (fun i ->
      Pool.parallel_for ~n (fun j -> out.(i).(j) <- (i * n) + j));
  let expect = Array.init n (fun i -> Array.init n (fun j -> (i * n) + j)) in
  Alcotest.(check bool) "nested regions degrade but compute" true (out = expect)

let test_sequential_restores () =
  let inside = Pool.sequential (fun () -> 41 + 1) in
  Alcotest.(check int) "sequential returns the thunk's value" 42 inside;
  (* After [sequential], parallel regions must work again. *)
  test_parallel_for ()

(* --- WL joint refinement ------------------------------------------------- *)

let prop_run_joint_deterministic =
  qtest "run_joint: pool == sequential (colors, rounds)" seed_arb (fun seed ->
      let corpus =
        List.init 4 (fun i ->
            random_graph (seed + (31 * i)) ~n:(6 + ((seed + i) mod 9)) ~p:0.3)
      in
      let par = Cr.run_joint corpus in
      let seq = Pool.sequential (fun () -> Cr.run_joint corpus) in
      Cr.stable_colors par = Cr.stable_colors seq
      && Cr.rounds par = Cr.rounds seq
      && Cr.history par = Cr.history seq)

let prop_graph_partition_deterministic =
  qtest "graph_partition: pool == sequential" seed_arb (fun seed ->
      let corpus = List.init 6 (fun i -> random_graph (seed + (7 * i)) ~n:8 ~p:0.35) in
      let par = Cr.graph_partition corpus in
      let seq = Pool.sequential (fun () -> Cr.graph_partition corpus) in
      par = seq)

(* One random mutation batch: returns the mutated graph plus the touched
   vertex lists a server-side MUTATE would report (endpoints of every
   edge op — a superset of the vertices whose adjacency actually changed
   is allowed). *)
let random_mutation_batch rng g =
  let n = Glql_graph.Graph.n_vertices g in
  let module G = Glql_graph.Graph in
  let n_ops = 1 + Rng.int rng 6 in
  let adds = ref [] and dels = ref [] and labs = ref [] in
  let t_adj = ref [] and t_lab = ref [] in
  let existing = Array.of_list (G.edges g) in
  for _ = 1 to n_ops do
    match Rng.int rng 3 with
    | 0 ->
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v then begin
          adds := (u, v) :: !adds;
          t_adj := u :: v :: !t_adj
        end
    | 1 ->
        if Array.length existing > 0 then begin
          let u, v = Rng.pick rng existing in
          dels := (u, v) :: !dels;
          t_adj := u :: v :: !t_adj
        end
    | _ ->
        let v = Rng.int rng n in
        let value = float_of_int (1 + Rng.int rng 3) in
        labs := (v, [| value |]) :: !labs;
        t_lab := v :: !t_lab
  done;
  let g' = G.mutate g ~add_edges:!adds ~del_edges:!dels ~set_labels:!labs in
  (g', !t_adj, !t_lab)

(* The tentpole property: (mutate batch -> incremental recolor) is
   bit-identical to (rebuild graph -> full refinement) — same colour
   ids, same history, same round count — across chained random
   ADD/DEL/SET_LABEL batches, with each batch seeding the next from the
   previous incremental result.  [frontier_limit:1.0] pins the
   incremental path on (no silent fallback), and runs under both
   GLQL_DOMAINS=1 and 4 via this executable's two runtest invocations. *)
let prop_incremental_recolor_bit_identical =
  qtest ~count:60 "run_incremental == full run (chained mutation batches)" seed_arb
    (fun seed ->
      let rng = Rng.create (seed + 11) in
      let n = 64 + Rng.int rng 65 in
      (* Mix sparse random graphs with homogeneous structured ones:
         cycles and grids stress the class-split paths of the image
         matcher (a mutation on a vertex-transitive graph cracks one
         giant class), random graphs the near-discrete paths. *)
      let g0 =
        match seed mod 3 with
        | 0 -> Generators.cycle n
        | 1 -> Generators.grid 8 (max 8 (n / 8))
        | _ -> random_graph (seed + 1) ~n ~p:0.06
      in
      let base = ref (Cr.run g0) in
      let g = ref g0 in
      let ok = ref true in
      for _batch = 1 to 3 do
        let g', t_adj, t_lab = random_mutation_batch rng !g in
        let full = Cr.run g' in
        let inc, was_incremental =
          Cr.run_incremental ~frontier_limit:1.0 ~base:!base ~touched_adj:t_adj
            ~touched_lab:t_lab g'
        in
        ok :=
          !ok && was_incremental
          && Cr.rounds inc = Cr.rounds full
          && Cr.history inc = Cr.history full
          && Cr.stable_colors inc = Cr.stable_colors full;
        base := inc;
        g := g'
      done;
      !ok)

(* --- hom-count profiles --------------------------------------------------- *)

let trees6 = Tree.all_free_trees_up_to 6

let prop_hom_profile_deterministic =
  qtest "Count.profile: pool == sequential (bit-equal floats)" seed_arb (fun seed ->
      let g = random_graph seed ~n:(5 + (seed mod 8)) ~p:0.4 in
      let par = Count.profile trees6 g in
      let seq = Pool.sequential (fun () -> Count.profile trees6 g) in
      float_array_eq par seq)

let prop_equal_profiles_deterministic =
  qtest "Count.equal_profiles: pool == sequential" seed_arb (fun seed ->
      let g = random_graph seed ~n:8 ~p:0.4 in
      let h = random_graph (seed + 1) ~n:8 ~p:0.4 in
      let par = Count.equal_profiles trees6 g h in
      let seq = Pool.sequential (fun () -> Count.equal_profiles trees6 g h) in
      par = seq)

(* --- matrix kernels ------------------------------------------------------- *)

let prop_mul_deterministic =
  (* 65*40*50 = 130k multiply-adds: well above the parallel threshold. *)
  qtest "Mat.mul: pool == sequential (bit-equal)" seed_arb (fun seed ->
      let a = random_mat seed 65 40 and b = random_mat (seed + 1) 40 50 in
      let par = Mat.mul a b in
      let seq = Pool.sequential (fun () -> Mat.mul a b) in
      mat_eq par seq)

let prop_mul_abt_deterministic =
  qtest "Mat.mul_abt: pool == sequential and == mul with transpose" seed_arb (fun seed ->
      let a = random_mat seed 60 48 and b = random_mat (seed + 1) 55 48 in
      let par = Mat.mul_abt a b in
      let seq = Pool.sequential (fun () -> Mat.mul_abt a b) in
      mat_eq par seq && Mat.equal_approx ~tol:1e-12 par (Mat.mul a (Mat.transpose b)))

let test_mul_into_matches_mul () =
  let a = random_mat 5 33 21 and b = random_mat 6 21 27 in
  let c = Mat.zeros 33 27 in
  Mat.mul_into ~into:c a b;
  Alcotest.(check bool) "mul_into == mul" true (mat_eq c (Mat.mul a b))

let test_vec_mul_into_matches () =
  let m = random_mat 7 19 23 in
  let x = Array.init 19 (fun i -> Float.of_int i /. 7.0) in
  let y = Array.make 23 Float.nan in
  Mat.vec_mul_into ~into:y x m;
  Alcotest.(check bool) "vec_mul_into == vec_mul" true (float_array_eq y (Mat.vec_mul x m))

let test_equal_approx_short_circuit () =
  let a = Mat.zeros 4 4 and b = Mat.zeros 4 4 in
  Mat.set b 0 0 1.0;
  Alcotest.(check bool) "mismatch detected" false (Mat.equal_approx a b);
  Alcotest.(check bool) "equal matrices still equal" true (Mat.equal_approx a a)

(* --- propagation kernels -------------------------------------------------- *)

let prop_propagate_deterministic =
  qtest "Propagate kernels: pool == sequential (bit-equal)" seed_arb (fun seed ->
      (* 40 vertices x 64 features crosses the parallel-cells threshold. *)
      let g = random_graph seed ~n:40 ~p:0.2 in
      let h = random_mat (seed + 2) 40 64 in
      let pairs =
        [
          (Propagate.sum_neighbors g h, Pool.sequential (fun () -> Propagate.sum_neighbors g h));
          (Propagate.mean_neighbors g h, Pool.sequential (fun () -> Propagate.mean_neighbors g h));
          ( Propagate.mean_neighbors_backward g h,
            Pool.sequential (fun () -> Propagate.mean_neighbors_backward g h) );
          (Propagate.gcn_neighbors g h, Pool.sequential (fun () -> Propagate.gcn_neighbors g h));
          (fst (Propagate.max_neighbors g h), Pool.sequential (fun () -> fst (Propagate.max_neighbors g h)));
        ]
      in
      List.for_all (fun (p, s) -> mat_eq p s) pairs)

(* --- flat kernels vs pre-refactor references ------------------------------ *)

(* The string-key / adjacency-list implementations the flat CSR kernels
   replaced, kept as executable specifications: the library must
   reproduce their outputs bit for bit, under every pool size (this
   executable runs at GLQL_DOMAINS=1 and 4). *)
module Reference = struct
  module Sig_hash = Glql_util.Sig_hash
  module Graph = Glql_graph.Graph

  let joint_color_count colorings =
    let seen = Hashtbl.create 64 in
    List.iter (fun colors -> Array.iter (fun c -> Hashtbl.replace seen c ()) colors) colorings;
    Hashtbl.length seen

  (* Joint colour refinement with decimal string signature keys and
     [Graph.neighbors] walks — the exact pre-flat implementation. *)
  let run_joint graphs =
    let garr = Array.of_list graphs in
    let ng = Array.length garr in
    let offsets = Array.make (ng + 1) 0 in
    for i = 0 to ng - 1 do
      offsets.(i + 1) <- offsets.(i) + Graph.n_vertices garr.(i)
    done;
    let total = offsets.(ng) in
    let owner = Array.make total 0 in
    for i = 0 to ng - 1 do
      Array.fill owner offsets.(i) (Graph.n_vertices garr.(i)) i
    done;
    let interner = Sig_hash.Interner.create () in
    let keys = Array.make total "" in
    let intern_all () =
      let out = Array.init ng (fun gi -> Array.make (Graph.n_vertices garr.(gi)) 0) in
      for idx = 0 to total - 1 do
        let gi = owner.(idx) in
        out.(gi).(idx - offsets.(gi)) <- Sig_hash.Interner.intern interner keys.(idx)
      done;
      Array.to_list out
    in
    for idx = 0 to total - 1 do
      let gi = owner.(idx) in
      let v = idx - offsets.(gi) in
      keys.(idx) <- "L" ^ Sig_hash.of_float_vector (Graph.label garr.(gi) v)
    done;
    let current = ref (intern_all ()) in
    let history = ref [ !current ] in
    let count = ref (joint_color_count !current) in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < total + 1 do
      let colors = Array.of_list !current in
      for idx = 0 to total - 1 do
        let gi = owner.(idx) in
        let v = idx - offsets.(gi) in
        let c = colors.(gi) in
        let nb = Array.map (fun u -> c.(u)) (Graph.neighbors garr.(gi) v) in
        keys.(idx) <- string_of_int c.(v) ^ "|" ^ Sig_hash.of_int_multiset nb
      done;
      let next = intern_all () in
      let count' = joint_color_count next in
      current := next;
      history := next :: !history;
      incr rounds;
      if count' = !count then continue_ := false else count := count'
    done;
    (List.rev !history, !current, !rounds)

  let sum_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let out = Mat.zeros n d in
    for v = 0 to n - 1 do
      Array.iter
        (fun u ->
          for j = 0 to d - 1 do
            Mat.set out v j (Mat.get out v j +. Mat.get h u j)
          done)
        (Graph.neighbors g v)
    done;
    out

  let mean_neighbors g h =
    let out = sum_neighbors g h in
    for v = 0 to Graph.n_vertices g - 1 do
      let deg = Graph.degree g v in
      if deg > 0 then
        for j = 0 to Mat.cols h - 1 do
          Mat.set out v j (Mat.get out v j /. float_of_int deg)
        done
    done;
    out

  let mean_neighbors_backward g dz =
    let n = Graph.n_vertices g and d = Mat.cols dz in
    let out = Mat.zeros n d in
    for u = 0 to n - 1 do
      Array.iter
        (fun v ->
          let inv = 1.0 /. float_of_int (Graph.degree g v) in
          for j = 0 to d - 1 do
            Mat.set out u j (Mat.get out u j +. (inv *. Mat.get dz v j))
          done)
        (Graph.neighbors g u)
    done;
    out

  let max_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let out = Mat.zeros n d in
    let arg = Array.make_matrix n d (-1) in
    for v = 0 to n - 1 do
      let nb = Graph.neighbors g v in
      if Array.length nb > 0 then
        for j = 0 to d - 1 do
          let best = ref nb.(0) in
          Array.iter (fun u -> if Mat.get h u j > Mat.get h !best j then best := u) nb;
          Mat.set out v j (Mat.get h !best j);
          arg.(v).(j) <- !best
        done
    done;
    (out, arg)

  let gcn_neighbors g h =
    let n = Graph.n_vertices g and d = Mat.cols h in
    let inv_sqrt_deg =
      Array.init n (fun v -> 1.0 /. sqrt (float_of_int (Graph.degree g v + 1)))
    in
    let out = Mat.zeros n d in
    for v = 0 to n - 1 do
      let self_coef = inv_sqrt_deg.(v) *. inv_sqrt_deg.(v) in
      for j = 0 to d - 1 do
        Mat.set out v j (self_coef *. Mat.get h v j)
      done;
      Array.iter
        (fun u ->
          let coef = inv_sqrt_deg.(v) *. inv_sqrt_deg.(u) in
          for j = 0 to d - 1 do
            Mat.set out v j (Mat.get out v j +. (coef *. Mat.get h u j))
          done)
        (Graph.neighbors g v)
    done;
    out

  let hom_tree_rooted pattern root g =
    let n = Graph.n_vertices g in
    let rec down t parent =
      let children =
        Array.to_list (Graph.neighbors pattern t) |> List.filter (fun u -> u <> parent)
      in
      let child_tables = List.map (fun c -> down c t) children in
      Array.init n (fun v ->
          List.fold_left
            (fun acc table ->
              if acc = 0.0 then 0.0
              else begin
                let s = ref 0.0 in
                Array.iter (fun u -> s := !s +. table.(u)) (Graph.neighbors g v);
                acc *. !s
              end)
            1.0 child_tables)
    in
    down root (-1)

  let hom_tree pattern g =
    Array.fold_left ( +. ) 0.0 (hom_tree_rooted pattern 0 g)

  let profile patterns g = Array.of_list (List.map (fun p -> hom_tree p g) patterns)
end

let prop_wl_matches_reference =
  qtest "flat WL == string-key reference (history, rounds)" seed_arb (fun seed ->
      let corpus =
        List.init 3 (fun i -> random_graph (seed + (11 * i)) ~n:(6 + ((seed + i) mod 9)) ~p:0.3)
      in
      let flat = Cr.run_joint corpus in
      let ref_history, ref_stable, ref_rounds = Reference.run_joint corpus in
      Cr.history flat = ref_history
      && Cr.stable_colors flat = ref_stable
      && Cr.rounds flat = ref_rounds)

let prop_propagate_matches_reference =
  qtest "flat propagate == adjacency-list reference (bit-equal)" seed_arb (fun seed ->
      let g = random_graph seed ~n:40 ~p:0.2 in
      let h = random_mat (seed + 2) 40 64 in
      mat_eq (Propagate.sum_neighbors g h) (Reference.sum_neighbors g h)
      && mat_eq (Propagate.mean_neighbors g h) (Reference.mean_neighbors g h)
      && mat_eq (Propagate.mean_neighbors_backward g h) (Reference.mean_neighbors_backward g h)
      && mat_eq (Propagate.gcn_neighbors g h) (Reference.gcn_neighbors g h)
      &&
      let fo, fa = Propagate.max_neighbors g h in
      let ro, ra = Reference.max_neighbors g h in
      mat_eq fo ro && fa = ra)

let prop_hom_matches_reference =
  qtest "flat hom profile == reference tree DP (bit-equal)" seed_arb (fun seed ->
      let g = random_graph seed ~n:(5 + (seed mod 8)) ~p:0.4 in
      float_array_eq (Count.profile trees6 g) (Reference.profile trees6 g))

(* --- layered GEL evaluation vs the row-at-a-time reference ---------------- *)

module Expr = Glql_gel.Expr
module Func = Glql_gel.Func
module B = Glql_gel.Builder
module Normal_form = Glql_gel.Normal_form
module Vec = Glql_tensor.Vec

(* The layered evaluator before it was compiled to flat per-round
   kernels, replayed from the separated expression: slots in
   aggregation post-order, a tree-walking interpreter, a full-width
   neighbour sum before every layer, one copied row per vertex per
   layer. [Normal_form.eval] must reproduce it bit for bit. *)
module Layered_reference = struct
  module Graph = Glql_graph.Graph

  module Memo = Hashtbl.Make (struct
    type t = Expr.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type slot = { msg_off : int; res_off : int; sdim : int; message : Expr.t }

  let collect_aggs e =
    let memo = Memo.create 64 in
    let out = ref [] in
    let rec go e =
      if not (Memo.mem memo e) then begin
        Memo.add memo e ();
        match e with
        | Expr.Lab _ | Expr.Const _ | Expr.Edge _ | Expr.Cmp _ -> ()
        | Expr.Apply (_, args) -> List.iter go args
        | Expr.Agg (_, _, value, guard) ->
            go value;
            go guard;
            out := e :: !out
      end
    in
    go e;
    !out

  (* (d0, feature_dim, layers, output) of the separated expression. *)
  let compile sep =
    let d0 =
      let memo = Memo.create 64 in
      let m = ref 0 in
      let rec go e =
        if not (Memo.mem memo e) then begin
          Memo.add memo e ();
          match e with
          | Expr.Lab (j, _) -> m := max !m (j + 1)
          | Expr.Const _ | Expr.Edge _ | Expr.Cmp _ -> ()
          | Expr.Apply (_, args) -> List.iter go args
          | Expr.Agg (_, _, v, g) ->
              go v;
              go g
        end
      in
      go sep;
      max 1 !m
    in
    let aggs = collect_aggs sep in
    let slots = Memo.create 16 in
    let next = ref d0 in
    let slot_list =
      List.filter_map
        (fun a ->
          match a with
          | Expr.Agg (_, _, value, _) ->
              let sdim = Expr.dim value in
              let s = { msg_off = !next; res_off = !next + sdim; sdim; message = value } in
              next := !next + (2 * sdim);
              Memo.add slots a s;
              Some (a, s)
          | _ -> None)
        aggs
    in
    let feature_dim = !next in
    let n_rounds = Expr.agg_depth sep in
    let rec interp e (f : Vec.t) : Vec.t =
      match e with
      | Expr.Const v -> v
      | Expr.Lab (j, _) -> [| f.(j) |]
      | Expr.Cmp (Expr.Ceq, a, b) when a = b -> [| 1.0 |]
      | Expr.Cmp (Expr.Cneq, a, b) when a = b -> [| 0.0 |]
      | Expr.Apply (fn, args) -> fn.Func.apply (List.map (fun a -> interp a f) args)
      | Expr.Agg _ ->
          let s = Memo.find slots e in
          Array.sub f s.res_off s.sdim
      | _ -> assert false
    in
    let depth_of = Memo.create 16 in
    List.iter (fun (a, _) -> Memo.add depth_of a (Expr.agg_depth a)) slot_list;
    let message_layer t self =
      let out = Vec.copy self in
      List.iter
        (fun (a, s) ->
          if Memo.find depth_of a = t then begin
            let m = interp s.message self in
            Array.blit m 0 out s.msg_off s.sdim
          end)
        slot_list;
      out
    in
    let collect_layer t self nbsum =
      let out = Vec.copy self in
      List.iter
        (fun (a, s) ->
          if Memo.find depth_of a = t then
            Array.blit (Array.sub nbsum s.msg_off s.sdim) 0 out s.res_off s.sdim)
        slot_list;
      out
    in
    let layers =
      List.concat_map
        (fun t -> [ (fun self _ -> message_layer t self); collect_layer t ])
        (List.init n_rounds (fun i -> i + 1))
    in
    (d0, feature_dim, layers, interp sep)

  let eval (d0, feature_dim, layers, output) g =
    let n = Graph.n_vertices g in
    let feat =
      Array.init n (fun v ->
          let f = Vec.zeros feature_dim in
          let l = Graph.label g v in
          Array.blit l 0 f 0 (min (Vec.dim l) d0);
          f)
    in
    let current = ref feat in
    List.iter
      (fun layer ->
        let prev = !current in
        let nbsum =
          Array.init n (fun v ->
              let acc = Vec.zeros feature_dim in
              Array.iter (fun u -> Vec.add_inplace ~into:acc prev.(u)) (Graph.neighbors g v);
              acc)
        in
        current := Array.init n (fun v -> layer prev.(v) nbsum.(v)))
      layers;
    Array.map output !current

  (* The same loop over the row functions [Normal_form.to_expr] exports:
     Apply (output, [Apply (layer_2L, [... Apply (embed, _) ...; _]); _]). *)
  let of_normal_expr nfe =
    let rec chain e acc =
      match e with
      | Expr.Apply (f, [ self; _ ]) -> chain self ((fun a b -> f.Func.apply [ a; b ]) :: acc)
      | Expr.Apply (embed, [ _ ]) -> (embed, acc)
      | _ -> assert false
    in
    match nfe with
    | Expr.Apply (output, [ body ]) ->
        let embed, layers = chain body [] in
        (List.hd embed.Func.in_dims, embed.Func.out_dim, layers, fun f -> output.Func.apply [ f ])
    | _ -> assert false
end

(* Random MPNN(Omega, sum) expressions over x1/x2, mixing values the
   separation step must push a sum through (products and sums with an
   x-only side, bare degrees) with plain nested neighbour sums. *)
let random_mpnn_expr rng ~label_dim ~depth =
  let rec go depth x y =
    let d = 1 + Rng.int rng 2 in
    if depth = 0 then
      match Rng.int rng 3 with
      | 0 -> B.lab (Rng.int rng label_dim) x
      | 1 -> B.const (Vec.init d (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
      | _ -> B.degree ~x ~y
    else
      match Rng.int rng 7 with
      | 0 ->
          let a = go (depth - 1) x y in
          B.linear
            (Mat.gaussian rng (Expr.dim a) d ~stddev:0.7)
            (Vec.gaussian rng d ~stddev:0.3) a
      | 1 -> B.concat [ go (depth - 1) x y; go (depth - 1) x y ]
      | 2 -> B.scale (Rng.uniform rng ~lo:(-2.0) ~hi:2.0) (go (depth - 1) x y)
      | 3 -> B.relu (go (depth - 1) x y)
      | 4 ->
          (* A value mixing both variables: the sum is pushed through the
             product / addition onto the y side. *)
          let own = B.lab (Rng.int rng label_dim) x in
          let other = B.sigmoid (B.lab (Rng.int rng label_dim) y) in
          let mixed = if Rng.int rng 2 = 0 then B.mul own other else B.add own other in
          B.sum_neighbors ~x ~y mixed
      | _ -> B.sum_neighbors ~x ~y (go (depth - 1) y x)
  in
  let body = go depth B.x1 B.x2 in
  if Expr.free_vars body = [ B.x1 ] then body else B.concat [ B.lab 0 B.x1; body ]

(* Random, relabelled (including labels narrower than the expression
   reads) and mutated graphs. *)
let layered_graph seed =
  let rng = Rng.create (seed + 5) in
  let n = 2 + Rng.int rng 30 in
  let g = random_graph seed ~n ~p:(Rng.uniform rng ~lo:0.05 ~hi:0.5) in
  match seed mod 3 with
  | 0 -> g
  | 1 ->
      let dim = 1 + Rng.int rng 3 in
      Graph.with_labels g
        (Array.init n (fun _ -> Vec.init dim (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)))
  | _ ->
      let g = Graph.with_one_hot_labels g (Array.init n (fun _ -> Rng.int rng 3)) ~n_colors:3 in
      let pair () =
        let u = Rng.int rng n in
        (u, (u + 1 + Rng.int rng (n - 1)) mod n)
      in
      Graph.mutate g
        ~add_edges:(List.init 4 (fun _ -> pair ()))
        ~del_edges:(List.init 2 (fun _ -> pair ()))
        ~set_labels:[ (Rng.int rng n, [| 0.0; 1.0; 0.0 |]) ]

let rows_bit_equal a b = Array.length a = Array.length b && Array.for_all2 float_array_eq a b

let prop_layered_matches_reference =
  qtest ~count:60 "layered eval == row-at-a-time reference (bit-equal)" seed_arb (fun seed ->
      let e = random_mpnn_expr (Rng.create seed) ~label_dim:2 ~depth:(1 + (seed mod 4)) in
      let nf = Normal_form.of_vertex_expr e in
      let g = layered_graph seed in
      let flat = Normal_form.eval nf g in
      rows_bit_equal flat
        (Layered_reference.eval (Layered_reference.compile (Normal_form.separated nf)) g)
      && rows_bit_equal flat
           (Layered_reference.eval (Layered_reference.of_normal_expr (Normal_form.to_expr nf)) g))

(* --- ERM training --------------------------------------------------------- *)

let molecules = Dataset.molecules (Rng.create 4) ~n_graphs:8 ~n_atoms:8 ~n_atom_types:3

let train_once () =
  let model = Model.gin_classifier (Rng.create 8) ~in_dim:3 ~width:8 ~depth:2 ~n_classes:2 in
  Erm.train_graph_classifier ~epochs:2 model molecules ~train_indices:[ 0; 1; 2; 3; 4; 5 ]
    ~test_indices:[ 6; 7 ]

let test_erm_classifier_deterministic () =
  let par = train_once () in
  let seq = Pool.sequential train_once in
  Alcotest.(check bool)
    "losses bit-equal" true
    (List.for_all2 Float.equal par.Erm.losses seq.Erm.losses);
  Alcotest.(check bool)
    "metrics equal" true
    (Float.equal par.Erm.train_metric seq.Erm.train_metric
    && Float.equal par.Erm.test_metric seq.Erm.test_metric)

let regression =
  Dataset.regression_corpus (Rng.create 6) ~n_graphs:8 ~generator:(Dataset.er_generator ~n:8)
    ~target:Dataset.two_walk_count ~target_name:"two-walk"

let regress_once () =
  let model =
    Model.create ~readout:Model.RSum
      ~head:
        (Glql_nn.Mlp.create (Rng.create 7) ~sizes:[ 8; 1 ] ~act:Glql_nn.Activation.Identity
           ~out_act:Glql_nn.Activation.Identity)
      [ Glql_gnn.Layer.gnn101 (Rng.create 7) ~din:1 ~dout:8 ~act:Glql_nn.Activation.Tanh ]
  in
  Erm.train_graph_regressor ~epochs:2 model regression ~train_indices:[ 0; 1; 2; 3; 4 ]
    ~test_indices:[ 5; 6; 7 ]

let test_erm_regressor_deterministic () =
  let par = regress_once () in
  let seq = Pool.sequential regress_once in
  Alcotest.(check bool)
    "losses bit-equal" true
    (List.for_all2 Float.equal par.Erm.losses seq.Erm.losses);
  Alcotest.(check bool)
    "mse equal" true
    (Float.equal par.Erm.train_metric seq.Erm.train_metric
    && Float.equal par.Erm.test_metric seq.Erm.test_metric)

(* --- featurize recipes (protocol v6) ------------------------------------ *)

module SCache = Glql_server.Cache
module SRegistry = Glql_server.Registry
module Featurize = Glql_server.Featurize
module SP = Glql_server.Protocol

(* Schema plus content digest: equal pairs mean every float of the
   feature matrix is bit-identical, column layout included. *)
let featurize_once ~mode ~recipe seed =
  let g = random_graph seed ~n:24 ~p:0.2 in
  let registry = SRegistry.create () in
  let gen = SRegistry.register_prebuilt registry ~name:"r" ~spec:"random" g in
  let cache = SCache.create ~plan_capacity:16 ~coloring_capacity:8 () in
  let cols =
    match Featurize.parse_recipe recipe with Ok c -> c | Error e -> failwith e
  in
  match Featurize.build ~cache ~graph_name:"r" ~gen mode g cols with
  | Ok b -> (b.Featurize.b_schema, Featurize.row_digest b.Featurize.b_rows)
  | Error (code, msg) -> failwith (code ^ ": " ^ msg)

let vertex_recipe = "deg;wl;hom3;label;gel:agg_sum{x2}([1] | E(x1,x2))"
let graph_recipe = "deg;wl;kwl2;hom3"

let test_featurize_deterministic =
  qtest ~count:15 "featurize: pool == sequential (schema + digest)" seed_arb (fun seed ->
      let par = featurize_once ~mode:SP.Fm_vertex ~recipe:vertex_recipe seed in
      let seq =
        Pool.sequential (fun () -> featurize_once ~mode:SP.Fm_vertex ~recipe:vertex_recipe seed)
      in
      let gpar = featurize_once ~mode:SP.Fm_graph ~recipe:graph_recipe seed in
      let gseq =
        Pool.sequential (fun () -> featurize_once ~mode:SP.Fm_graph ~recipe:graph_recipe seed)
      in
      par = seq && gpar = gseq)

(* Writes are batch barriers: a pipelined batch mixing LOAD / MUTATE
   with reads of the same graph must answer exactly as the same lines
   sent one at a time, whatever the pool size. Only the cache tags may
   differ: a batch shares passes that lone lines each compute. *)
module Server = Glql_server.Server

let strip_cache_tags s =
  let hit = "_cache\":\"hit\"" in
  let k = String.length hit and n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub s !i k = hit then begin
      Buffer.add_string b "_cache\":\"miss\"";
      i := !i + k
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let test_writes_are_barriers () =
  let deg = "QUERY g 'agg_sum{x2}([1] | E(x1,x2))'" in
  let two_hop = "QUERY g 'agg_sum{x2}(agg_sum{x1}([1] | E(x2,x1)) | E(x1,x2))'" in
  let batch =
    [|
      "LOAD g cycle12";
      deg;
      "WL g";
      "MUTATE g ADD_EDGES 0 6";
      deg;
      two_hop;
      "WL g";
      "MUTATE g SET_LABEL 3 2.0 DEL_EDGES 0 6";
      "WL g";
      deg;
      "MUTATE g ADD_EDGES 1 7 2 8";
      two_hop;
      deg;
      "WL g";
    |]
  in
  let fresh () = Server.create { Server.default_config with Server.socket_path = None } in
  let batched = fresh () and reference = fresh () in
  for round = 1 to 100 do
    let got = Server.handle_lines batched batch in
    let want = Array.map (Server.handle_line reference) batch in
    Array.iteri
      (fun i w ->
        if not (SP.is_ok w) then Alcotest.failf "round %d: %S failed: %s" round batch.(i) w;
        if strip_cache_tags w <> strip_cache_tags got.(i) then
          Alcotest.failf "round %d: batched %S answered %s, alone %s" round batch.(i) got.(i) w)
      want
  done

let () =
  Alcotest.run "glql-parallel"
    [
      ( Printf.sprintf "pool (size %d)" (Pool.size ()),
        [
          case "size env" test_size_env;
          case "parallel_for" test_parallel_for;
          case "parallel_map_array" test_parallel_map;
          case "parallel_reduce order" test_reduce_order;
          case "exception propagation" test_exception;
          case "nested regions" test_nested;
          case "sequential escape hatch" test_sequential_restores;
        ] );
      ( "wl",
        [
          prop_run_joint_deterministic;
          prop_graph_partition_deterministic;
          prop_incremental_recolor_bit_identical;
        ] );
      ( "hom",
        [ prop_hom_profile_deterministic; prop_equal_profiles_deterministic ] );
      ( "mat",
        [
          prop_mul_deterministic;
          prop_mul_abt_deterministic;
          case "mul_into" test_mul_into_matches_mul;
          case "vec_mul_into" test_vec_mul_into_matches;
          case "equal_approx" test_equal_approx_short_circuit;
        ] );
      ("propagate", [ prop_propagate_deterministic ]);
      ( "flat-core",
        [
          prop_wl_matches_reference;
          prop_propagate_matches_reference;
          prop_hom_matches_reference;
          prop_layered_matches_reference;
        ] );
      ( "erm",
        [
          case "graph classifier deterministic" test_erm_classifier_deterministic;
          case "graph regressor deterministic" test_erm_regressor_deterministic;
        ] );
      ("featurize", [ test_featurize_deterministic ]);
      ("server", [ case "writes are batch barriers" test_writes_are_barriers ]);
    ]
