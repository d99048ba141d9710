(* Tests for the baseline placers (template / SA / genetic), the shared
   re-packer and the coordinate annealer. *)

open Mps_rng
open Mps_geometry
open Mps_netlist
open Mps_placement
open Mps_baselines

let check_bool = Alcotest.(check bool)

let circuit = Benchmarks.circ01
let die_w, die_h = Circuit.default_die circuit

(* Repack *)

let test_repack_no_overlap () =
  let rng = Rng.create ~seed:1 in
  let bounds = Circuit.dim_bounds circuit in
  let coords = [| (0, 0); (5, 5); (40, 0); (10, 30) |] in
  for _ = 1 to 50 do
    let dims = Dimbox.random_dims rng bounds in
    let rects = Repack.instantiate ~coords dims in
    check_bool "no overlap" true (Rect.any_overlap rects = None);
    Array.iteri
      (fun i r ->
        check_bool "dims preserved" true
          (r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i))
      rects
  done

let test_repack_identity_when_legal () =
  (* far-apart blocks do not move *)
  let coords = [| (0, 0); (100, 100); (200, 0); (0, 200) |] in
  let dims = Circuit.min_dims circuit in
  let rects = Repack.instantiate ~coords dims in
  Array.iteri
    (fun i r ->
      let x, y = coords.(i) in
      check_bool "kept in place" true (r.Rect.x = x && r.Rect.y = y))
    rects

let test_repack_die_fit () =
  (* blocks packed near the top wander back into the die when possible *)
  let coords = [| (0, 95); (5, 96); (10, 97); (15, 98) |] in
  let dims = Circuit.min_dims circuit in
  let rects = Repack.instantiate ~die:(200, 120) ~coords dims in
  check_bool "fits the die" true
    (Array.for_all (fun r -> Rect.inside r ~die_w:200 ~die_h:120) rects)

let test_repack_mismatch () =
  Alcotest.check_raises "count" (Invalid_argument "Repack.instantiate: block count mismatch")
    (fun () ->
      ignore (Repack.instantiate ~coords:[| (0, 0) |] (Dims.of_pairs [| (1, 1); (2, 2) |])))

(* The unit-step slide [Repack] used before it jumped past each clash:
   blocks in (x, y) order, ties by index, each sliding up one unit at a
   time until it clashes with no placed block. *)
let unit_step_repack ~coords dims =
  let n = Array.length coords in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun i j -> compare coords.(i) coords.(j)) order;
  let out = Array.make n None in
  Array.iter
    (fun i ->
      let x, _ = coords.(i) in
      let w = Dims.width dims i and h = Dims.height dims i in
      let at y = Rect.make ~x ~y ~w ~h in
      let clashes y =
        Array.exists
          (function Some r -> Rect.overlaps r (at y) | None -> false)
          out
      in
      let y = ref (snd coords.(i)) in
      while clashes !y do
        incr y
      done;
      out.(i) <- Some (at !y))
    order;
  Array.map Option.get out

let prop_repack_jump_equals_unit_step =
  QCheck.Test.make ~name:"repack: jumping slide equals the unit-step slide" ~count:500
    QCheck.(
      list_of_size Gen.(1 -- 9)
        (pair (pair (int_range 0 30) (int_range 0 30)) (pair (int_range 1 12) (int_range 1 12))))
    (fun blocks ->
      let blocks = Array.of_list blocks in
      let coords = Array.map fst blocks in
      let dims = Dims.of_pairs (Array.map snd blocks) in
      let expected = unit_step_repack ~coords dims in
      let got = Repack.instantiate ~coords dims in
      let out = Array.map (fun _ -> Rect.make ~x:0 ~y:0 ~w:1 ~h:1) got in
      Repack.instantiate_into ~scratch:(Repack.scratch ()) ~out ~die_w:40 ~die_h:40 ~coords
        dims;
      Array.for_all2 Rect.equal expected got
      && Array.for_all2 Rect.equal (Repack.instantiate ~die:(40, 40) ~coords dims) out)

(* Coord_opt / Sa_placer *)

let test_coord_opt_improves () =
  let rng = Rng.create ~seed:3 in
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let quick = { Coord_opt.default_config with Coord_opt.iterations = 1500 } in
  let r = Coord_opt.optimize ~config:quick ~rng circuit ~die_w ~die_h dims in
  check_bool "legal result" true r.Coord_opt.legal;
  check_bool "placement matches rects" true
    (Array.for_all2
       (fun (x, y) rect -> rect.Rect.x = x && rect.Rect.y = y)
       r.Coord_opt.placement.Placement.coords r.Coord_opt.rects);
  (* optimized cost beats the average of random placements *)
  let random_cost () =
    let p = Placement.random rng circuit ~die_w ~die_h in
    Mps_cost.Cost.total circuit ~die_w ~die_h (Placement.rects p (Circuit.min_dims circuit))
  in
  let avg_random =
    List.fold_left ( +. ) 0.0 (List.init 10 (fun _ -> random_cost ())) /. 10.0
  in
  check_bool "better than random" true (r.Coord_opt.cost < avg_random)

let test_sa_placer_legal_and_deterministic () =
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let config = { Sa_placer.default_config with iterations = 1200 } in
  let run seed = Sa_placer.place ~config ~rng:(Rng.create ~seed) circuit ~die_w ~die_h dims in
  let a = run 5 and b = run 5 in
  check_bool "legal" true a.Sa_placer.legal;
  Alcotest.(check (float 1e-12)) "deterministic" a.Sa_placer.cost b.Sa_placer.cost;
  check_bool "right dims" true
    (Array.for_all2
       (fun r i -> r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i)
       a.Sa_placer.rects
       (Array.init (Circuit.n_blocks circuit) Fun.id))

let test_sa_placer_dims_mismatch () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Coord_opt.optimize: block count mismatch") (fun () ->
      ignore (Sa_placer.place ~rng circuit ~die_w ~die_h (Dims.of_pairs [| (1, 1) |])))

(* Template placer *)

let test_template_build_and_instantiate () =
  let rng = Rng.create ~seed:7 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  check_bool "die recorded" true (Template_placer.die t = (die_w, die_h));
  let bounds = Circuit.dim_bounds circuit in
  let rng2 = Rng.create ~seed:8 in
  for _ = 1 to 30 do
    let dims = Dimbox.random_dims rng2 bounds in
    let rects = Template_placer.instantiate t dims in
    check_bool "no overlap" true (Rect.any_overlap rects = None);
    Array.iteri
      (fun i r ->
        check_bool "dims honoured" true
          (r.Rect.w = Dims.width dims i && r.Rect.h = Dims.height dims i))
      rects
  done

let test_template_fixed_arrangement () =
  (* the template's relative x-order of blocks never changes *)
  let rng = Rng.create ~seed:7 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  let order rects =
    let idx = Array.init (Array.length rects) Fun.id in
    Array.sort (fun i j -> Int.compare rects.(i).Rect.x rects.(j).Rect.x) idx;
    Array.to_list idx
  in
  let nominal = order (Template_placer.instantiate t (Dimbox.center (Circuit.dim_bounds circuit))) in
  let at_min = order (Template_placer.instantiate t (Circuit.min_dims circuit)) in
  Alcotest.(check (list int)) "same left-to-right story" nominal at_min

(* Genetic placer *)

let test_genetic_improves_and_legal () =
  let rng = Rng.create ~seed:9 in
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let config = { Genetic_placer.default_config with generations = 30; population = 24 } in
  let r = Genetic_placer.place ~config ~rng circuit ~die_w ~die_h dims in
  check_bool "evaluations counted" true (r.Genetic_placer.evaluations > 24);
  check_bool "cost finite" true (Float.is_finite r.Genetic_placer.cost);
  (* with overlap penalties the GA almost always ends legal on 4 blocks *)
  check_bool "legal" true r.Genetic_placer.legal

let test_genetic_bad_config () =
  let rng = Rng.create ~seed:9 in
  let dims = Circuit.min_dims circuit in
  let bad = { Genetic_placer.default_config with population = 4; elite = 4 } in
  Alcotest.check_raises "elite >= population"
    (Invalid_argument "Genetic_placer.place: bad population/elite") (fun () ->
      ignore (Genetic_placer.place ~config:bad ~rng circuit ~die_w ~die_h dims))

let test_genetic_deterministic () =
  let dims = Dimbox.center (Circuit.dim_bounds circuit) in
  let config = { Genetic_placer.default_config with generations = 10; population = 12 } in
  let run seed =
    (Genetic_placer.place ~config ~rng:(Rng.create ~seed) circuit ~die_w ~die_h dims)
      .Genetic_placer.cost
  in
  Alcotest.(check (float 1e-12)) "deterministic" (run 4) (run 4)

(* Cross-strategy sanity: optimization beats the fixed template on
   average over random dimension vectors. *)
let test_sa_beats_template_on_average () =
  let rng = Rng.create ~seed:11 in
  let t = Template_placer.build ~iterations:800 ~rng circuit ~die_w ~die_h in
  let bounds = Circuit.dim_bounds circuit in
  let sa_config = { Sa_placer.default_config with iterations = 1500 } in
  let sa_rng = Rng.create ~seed:12 in
  let trials = 8 in
  let sa_total = ref 0.0 and tp_total = ref 0.0 in
  let probe_rng = Rng.create ~seed:13 in
  for _ = 1 to trials do
    let dims = Dimbox.random_dims probe_rng bounds in
    let sa = Sa_placer.place ~config:sa_config ~rng:sa_rng circuit ~die_w ~die_h dims in
    let tp = Template_placer.instantiate t dims in
    sa_total := !sa_total +. sa.Sa_placer.cost;
    tp_total := !tp_total +. Mps_cost.Cost.total circuit ~die_w ~die_h tp
  done;
  check_bool "optimization wins on quality" true (!sa_total < !tp_total)

let suite =
  [
    ("repack: overlap-free at requested dims", `Quick, test_repack_no_overlap);
    ("repack: keeps legal arrangements in place", `Quick, test_repack_identity_when_legal);
    ("repack: fits the die when possible", `Quick, test_repack_die_fit);
    ("repack: block count mismatch", `Quick, test_repack_mismatch);
    ("coord_opt: legal and better than random", `Quick, test_coord_opt_improves);
    ("sa placer: legal and deterministic", `Quick, test_sa_placer_legal_and_deterministic);
    ("sa placer: dims mismatch raises", `Quick, test_sa_placer_dims_mismatch);
    ("template: legal instantiation over the space", `Quick, test_template_build_and_instantiate);
    ("template: arrangement is fixed", `Quick, test_template_fixed_arrangement);
    ("genetic: runs, improves, legal", `Quick, test_genetic_improves_and_legal);
    ("genetic: bad config rejected", `Quick, test_genetic_bad_config);
    ("genetic: deterministic per seed", `Quick, test_genetic_deterministic);
    ("sa beats template on average", `Quick, test_sa_beats_template_on_average);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_repack_jump_equals_unit_step ]
