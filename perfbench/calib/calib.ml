(* Fixed reference work for the benchmark's host-speed calibration.

   Each line on stdin is a count n; the program does n units of the
   same work and answers "done". A unit is colour refinement on a fixed
   pseudo-random graph (hashing, sorting, hash tables, allocation), a
   small float matrix product, and JSON-like text built in a buffer:
   the kinds of work glqld does per request, in plain stdlib code that
   no change to the repository's libraries touches. The benchmark
   divides the daemon's CPU time by this program's CPU time over the
   same stretch of the run, so a host that runs everything slower for
   a while moves both alike. *)

let n = 2000
let degree = 4

let graph =
  let st = Random.State.make [| 17 |] in
  Array.init n (fun v ->
      Array.init degree (fun i -> if i = 0 then (v + 1) mod n else Random.State.int st n))

let refine () =
  let colour = Array.make n 0 in
  let classes = ref 1 and stable = ref false in
  while not !stable do
    let table = Hashtbl.create n in
    let next =
      Array.init n (fun v ->
          let sig_ = List.sort compare (Array.to_list (Array.map (fun u -> colour.(u)) graph.(v))) in
          let key = (colour.(v), sig_) in
          match Hashtbl.find_opt table key with
          | Some c -> c
          | None ->
              let c = Hashtbl.length table in
              Hashtbl.add table key c;
              c)
    in
    stable := Hashtbl.length table = !classes;
    classes := Hashtbl.length table;
    Array.blit next 0 colour 0 n
  done;
  colour

let matmul k =
  let a = Array.init k (fun i -> Array.init k (fun j -> float_of_int ((i * 7 + j * 3) mod 11))) in
  let c = Array.make_matrix k k 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let s = ref 0.0 in
      for l = 0 to k - 1 do
        s := !s +. (a.(i).(l) *. a.(l).(j))
      done;
      c.(i).(j) <- !s
    done
  done;
  c.(k - 1).(k - 1)

let render colour =
  let b = Buffer.create (16 * n) in
  Buffer.add_string b "{\"colors\":[";
  Array.iteri (fun i c -> if i > 0 then Buffer.add_char b ','; Buffer.add_string b (string_of_int c)) colour;
  Buffer.add_string b "]}";
  Buffer.length b

let unit_work () =
  let colour = refine () in
  let x = matmul 60 in
  render colour + int_of_float x

let () =
  let sink = ref 0 in
  (try
     while true do
       let k = int_of_string (String.trim (input_line stdin)) in
       for _ = 1 to k do
         sink := !sink + unit_work ()
       done;
       print_endline (if !sink = min_int then "" else "done")
     done
   with End_of_file -> ())
