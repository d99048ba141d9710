(* Tests for the routing grid, the maze router and parasitic
   extraction. *)

open Mps_geometry
open Mps_netlist
open Mps_route

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Route_grid *)

let test_grid_shape () =
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 [||] in
  check_int "cols" 10 (Route_grid.cols g);
  check_int "rows" 5 (Route_grid.rows g);
  let g2 = Route_grid.create ~die_w:41 ~die_h:21 ~cell:4 ~capacity:2 [||] in
  check_int "cols rounded up" 11 (Route_grid.cols g2);
  check_int "rows rounded up" 6 (Route_grid.rows g2)

let test_grid_blocking () =
  let rects = [| Rect.make ~x:8 ~y:4 ~w:8 ~h:8 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "inside blocked" true (Route_grid.blocked g (3, 2));
  check_bool "outside free" false (Route_grid.blocked g (0, 0));
  check_bool "right of block free" false (Route_grid.blocked g (5, 2))

let test_grid_unblock () =
  let rects = [| Rect.make ~x:0 ~y:0 ~w:40 ~h:20 |] in
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 rects in
  check_bool "blocked" true (Route_grid.blocked g (2, 2));
  Route_grid.unblock g (2, 2);
  check_bool "carved" false (Route_grid.blocked g (2, 2))

let test_grid_cells_and_points () =
  let g = Route_grid.create ~die_w:40 ~die_h:20 ~cell:4 ~capacity:2 [||] in
  check_bool "cell of point" true (Route_grid.cell_of_point g ~x:9.0 ~y:5.0 = (2, 1));
  check_bool "clamped" true (Route_grid.cell_of_point g ~x:1000.0 ~y:(-3.0) = (9, 0));
  let x, y = Route_grid.center_of_cell g (2, 1) in
  check_bool "center" true (abs_float (x -. 10.0) < 1e-9 && abs_float (y -. 6.0) < 1e-9)

let test_grid_congestion () =
  let g = Route_grid.create ~die_w:8 ~die_h:8 ~cell:4 ~capacity:2 [||] in
  check_int "no overflow" 0 (Route_grid.overflow g);
  for _ = 1 to 5 do
    Route_grid.occupy g (0, 0)
  done;
  check_int "usage" 5 (Route_grid.usage g (0, 0));
  check_int "overflow = usage - capacity" 3 (Route_grid.overflow g)

let test_grid_neighbors () =
  let rects = [| Rect.make ~x:4 ~y:0 ~w:4 ~h:4 |] in
  let g = Route_grid.create ~die_w:12 ~die_h:8 ~cell:4 ~capacity:2 rects in
  (* (0,0): right neighbour (1,0) is blocked; up (0,1) is free *)
  Alcotest.(check (list (pair int int))) "corner neighbours" [ (0, 1) ]
    (Route_grid.neighbors g (0, 0))

(* Router on a hand-made two-block circuit *)

let two_block_circuit =
  Circuit.make ~name:"rt"
    ~blocks:
      [|
        Block.make_wh ~id:0 ~name:"a" ~w:(8, 16) ~h:(8, 16);
        Block.make_wh ~id:1 ~name:"b" ~w:(8, 16) ~h:(8, 16);
      |]
    ~nets:
      [|
        Net.make ~id:0 ~name:"n"
          ~pins:[ Net.block_pin ~fx:0.5 ~fy:0.5 0; Net.block_pin ~fx:0.5 ~fy:0.5 1 ];
      |]

let test_route_simple_net () =
  let rects = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:32 ~y:0 ~w:8 ~h:8 |] in
  let r = Router.route two_block_circuit ~die_w:60 ~die_h:40 rects in
  check_int "no failures" 0 r.Router.failed_nets;
  check_bool "routed" true r.Router.nets.(0).Router.routed;
  (* pins are ~32 units apart: the routed length must be at least that
     and not wildly more *)
  let len = r.Router.nets.(0).Router.length in
  check_bool "length sane" true (len >= 28.0 && len <= 80.0)

let test_route_detours_around_obstacle () =
  (* a third block sits exactly between the two pins: the route must be
     longer than the straight line *)
  let circuit =
    Circuit.make ~name:"rt3"
      ~blocks:
        [|
          Block.make_wh ~id:0 ~name:"a" ~w:(8, 16) ~h:(8, 16);
          Block.make_wh ~id:1 ~name:"b" ~w:(8, 16) ~h:(8, 16);
          Block.make_wh ~id:2 ~name:"wall" ~w:(8, 16) ~h:(8, 40);
        |]
      ~nets:
        [|
          Net.make ~id:0 ~name:"n"
            ~pins:[ Net.block_pin ~fx:0.5 ~fy:0.5 0; Net.block_pin ~fx:0.5 ~fy:0.5 1 ];
        |]
  in
  let straight =
    [| Rect.make ~x:0 ~y:16 ~w:8 ~h:8; Rect.make ~x:52 ~y:16 ~w:8 ~h:8;
       Rect.make ~x:24 ~y:28 ~w:8 ~h:8 |]
  in
  let blocked_mid =
    [| Rect.make ~x:0 ~y:16 ~w:8 ~h:8; Rect.make ~x:52 ~y:16 ~w:8 ~h:8;
       Rect.make ~x:24 ~y:0 ~w:8 ~h:40 |]
  in
  let len rects =
    (Router.route circuit ~die_w:60 ~die_h:48 rects).Router.nets.(0).Router.length
  in
  check_bool "wall forces a detour" true (len blocked_mid > len straight)

let test_route_benchmark_circuits () =
  (* every benchmark circuit routes at a reasonable floorplan without
     failed nets blowing up *)
  List.iter
    (fun c ->
      let die_w, die_h = Circuit.default_die c in
      let rng = Mps_rng.Rng.create ~seed:3 in
      let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
      let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
      let r = Router.route c ~die_w ~die_h rects in
      check_bool (c.Circuit.name ^ ": mostly routable") true
        (r.Router.failed_nets <= Circuit.n_nets c / 4);
      check_bool (c.Circuit.name ^ ": positive length") true (r.Router.total_length > 0.0);
      Array.iter
        (fun (net : Router.routed_net) ->
          check_bool "length non-negative" true (net.Router.length >= 0.0))
        r.Router.nets)
    [ Benchmarks.circ01; Benchmarks.two_stage_opamp; Benchmarks.mixer ]

let test_route_deterministic () =
  let c = Benchmarks.circ01 in
  let die_w, die_h = Circuit.default_die c in
  let rng = Mps_rng.Rng.create ~seed:3 in
  let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
  let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
  let r1 = Router.route c ~die_w ~die_h rects in
  let r2 = Router.route c ~die_w ~die_h rects in
  Alcotest.(check (float 1e-9)) "same total" r1.Router.total_length r2.Router.total_length

let test_route_longer_when_spread () =
  let compact = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:12 ~y:0 ~w:8 ~h:8 |] in
  let spread = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:48 ~y:28 ~w:8 ~h:8 |] in
  let len rects =
    (Router.route two_block_circuit ~die_w:60 ~die_h:40 rects).Router.total_length
  in
  check_bool "spread floorplan routes longer" true (len spread > len compact)

(* Extraction *)

let test_extraction_scales_with_length () =
  let compact = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:12 ~y:0 ~w:8 ~h:8 |] in
  let spread = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:48 ~y:28 ~w:8 ~h:8 |] in
  let cap rects =
    let r = Router.route two_block_circuit ~die_w:60 ~die_h:40 rects in
    (Extraction.extract two_block_circuit r).Extraction.total_capacitance_ff
  in
  check_bool "longer wires, more cap" true (cap spread > cap compact)

let test_extraction_pin_term () =
  (* zero-length net still pays the per-pin capacitance *)
  let rects = [| Rect.make ~x:0 ~y:0 ~w:8 ~h:8; Rect.make ~x:12 ~y:0 ~w:8 ~h:8 |] in
  let r = Router.route two_block_circuit ~die_w:60 ~die_h:40 rects in
  let e = Extraction.extract two_block_circuit r in
  let expected_min = 2.0 *. Extraction.default_constants.Extraction.c_ff_per_pin in
  check_bool "pin caps included" true
    (Extraction.net_capacitance e 0 >= expected_min -. 1e-9);
  Alcotest.check_raises "unknown net"
    (Invalid_argument "Extraction.net_capacitance: unknown net") (fun () ->
      ignore (Extraction.net_capacitance e 42))

let test_routed_performance_plausible () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let sizing = Mps_synthesis.Opamp.nominal_sizing in
  let dims = Mps_synthesis.Opamp.dims process circuit sizing in
  let rng = Mps_rng.Rng.create ~seed:5 in
  let p = Mps_placement.Placement.random rng circuit ~die_w ~die_h in
  let rects = Mps_placement.Repack.instantiate ~die:(die_w, die_h)
      ~coords:p.Mps_placement.Placement.coords dims
  in
  let hpwl_perf = Mps_synthesis.Opamp.performance process circuit ~die_w ~die_h sizing rects in
  let routed_perf =
    Mps_synthesis.Opamp.performance_routed process circuit ~die_w ~die_h sizing rects
  in
  check_bool "routed wire cap positive" true
    (routed_perf.Mps_synthesis.Opamp.wire_cap_ff > 0.0);
  check_bool "same power model" true
    (abs_float
       (routed_perf.Mps_synthesis.Opamp.power_mw -. hpwl_perf.Mps_synthesis.Opamp.power_mw)
     < 1e-9)

let test_synth_loop_routed_mode () =
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let structure, _ = Mps_core.Generator.generate ~config:Mps_core.Generator.fast_config circuit in
  let config =
    { Mps_synthesis.Synth_loop.default_config with
      iterations = 8;
      parasitics = Mps_synthesis.Synth_loop.Routed_extraction }
  in
  let r =
    Mps_synthesis.Synth_loop.run ~config process circuit ~die_w ~die_h
      (Mps_synthesis.Synth_loop.mps_placer structure)
  in
  check_bool "routed loop finishes" true (Float.is_finite r.Mps_synthesis.Synth_loop.best_cost)

(* Route identity: a fixed set of floorplans, every [Router.t] digested
   in full.  The digest was captured with the original Set-based
   router, so any change to the search that alters a single cell, its
   order in a net, or a length shows up here. *)

let routing_digest (results : Router.t list) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (r : Router.t) ->
      Array.iter
        (fun (n : Router.routed_net) ->
          Printf.bprintf b "n%d %b %h:" n.Router.net_id n.Router.routed n.Router.length;
          List.iter (fun (c, r) -> Printf.bprintf b "%d,%d;" c r) n.Router.cells;
          Buffer.add_char b '\n')
        r.Router.nets;
      Printf.bprintf b "T %h %d %d\n" r.Router.total_length r.Router.overflow
        r.Router.failed_nets)
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (circuit, die, rects) for seeds 0-49 of [Placement.random] on three
   benchmark circuits, then every op-amp floorplan one seeded routed
   sizing loop hands to the router. *)
let identity_floorplans () =
  let random =
    List.concat_map
      (fun c ->
        let die_w, die_h = Circuit.default_die c in
        List.init 50 (fun seed ->
            let rng = Mps_rng.Rng.create ~seed in
            let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
            (c, die_w, die_h, Mps_placement.Placement.rects p (Circuit.min_dims c))))
      [ Benchmarks.circ01; Benchmarks.two_stage_opamp; Benchmarks.mixer ]
  in
  let process = Mps_modgen.Process.default in
  let circuit = Mps_synthesis.Opamp.circuit process in
  let die_w, die_h = Circuit.default_die circuit in
  let structure, _ = Mps_core.Generator.generate ~config:Mps_core.Generator.fast_config circuit in
  let mps = Mps_synthesis.Synth_loop.mps_placer structure in
  let seen = ref [] in
  let recording =
    { mps with
      Mps_synthesis.Synth_loop.place =
        (fun dims ->
          let rects = mps.Mps_synthesis.Synth_loop.place dims in
          (* the placer reuses its buffer: keep a copy *)
          seen :=
            Array.map (fun r -> Rect.make ~x:r.Rect.x ~y:r.Rect.y ~w:r.Rect.w ~h:r.Rect.h) rects
            :: !seen;
          rects) }
  in
  let config =
    { Mps_synthesis.Synth_loop.default_config with
      seed = 7;
      iterations = 40;
      parasitics = Mps_synthesis.Synth_loop.Routed_extraction }
  in
  ignore (Mps_synthesis.Synth_loop.run ~config process circuit ~die_w ~die_h recording);
  random @ List.rev_map (fun rects -> (circuit, die_w, die_h, rects)) !seen

let test_route_identity () =
  let floorplans = identity_floorplans () in
  check_int "floorplan count" 191 (List.length floorplans);
  let results =
    List.map (fun (c, die_w, die_h, rects) -> Router.route c ~die_w ~die_h rects) floorplans
  in
  Alcotest.(check string) "route digest" "cc306f53292212c3ecba411066d3d748" (routing_digest results)

(* Properties *)

(* a die, a pitch and up to 8 rectangles, some crossing the die edge *)
let grid_case =
  let open QCheck.Gen in
  let rect die_w die_h =
    map
      (fun (x, y, w, h) -> Rect.make ~x ~y ~w ~h)
      (quad (int_range (-12) (die_w + 4)) (int_range (-12) (die_h + 4)) (int_range 1 30)
         (int_range 1 30))
  in
  let gen =
    int_range 1 60 >>= fun die_w ->
    int_range 1 60 >>= fun die_h ->
    int_range 1 7 >>= fun cell ->
    map (fun rects -> (die_w, die_h, cell, Array.of_list rects))
      (list_size (int_range 0 8) (rect die_w die_h))
  in
  let print (die_w, die_h, cell, rects) =
    Printf.sprintf "die %dx%d cell %d rects %s" die_w die_h cell
      (String.concat " "
         (Array.to_list
            (Array.map (fun r -> Printf.sprintf "(%d,%d,%d,%d)" r.Rect.x r.Rect.y r.Rect.w r.Rect.h)
               rects)))
  in
  QCheck.make ~print gen

let prop_grid_blocking_brute_force =
  QCheck.Test.make ~name:"grid: blocked cells match the per-cell predicate" ~count:300 grid_case
    (fun (die_w, die_h, cell, rects) ->
      let g = Route_grid.create ~die_w ~die_h ~cell ~capacity:1 rects in
      let ok = ref true in
      for r = 0 to Route_grid.rows g - 1 do
        for c = 0 to Route_grid.cols g - 1 do
          let cx = (float_of_int c +. 0.5) *. float_of_int cell in
          let cy = (float_of_int r +. 0.5) *. float_of_int cell in
          let inside rect =
            cx > float_of_int rect.Rect.x
            && cx < float_of_int (Rect.right rect)
            && cy > float_of_int rect.Rect.y
            && cy < float_of_int (Rect.top rect)
          in
          if Route_grid.blocked g (c, r) <> Array.exists inside rects then ok := false
        done
      done;
      !ok)

(* A small synthetic circuit, a random floorplan of it and a random
   router config, all drawn from one seed; routed, with each net's pin
   cells. *)
let routed_case seed =
  let rng = Mps_rng.Rng.create ~seed in
  let blocks = Mps_rng.Rng.int_in rng 2 6 in
  let nets = Mps_rng.Rng.int_in rng 1 6 in
  let terminals = Mps_rng.Rng.int_in rng (max blocks nets) (3 * blocks) in
  let c = Benchmarks.synthetic ~name:"prop" ~blocks ~nets ~terminals ~seed in
  let die_w, die_h = Circuit.default_die c in
  let p = Mps_placement.Placement.random rng c ~die_w ~die_h in
  let rects = Mps_placement.Placement.rects p (Circuit.min_dims c) in
  let config =
    { Router.cell = Mps_rng.Rng.int_in rng 2 6;
      capacity = Mps_rng.Rng.int_in rng 1 3;
      congestion_penalty = Mps_rng.Rng.int_in rng 0 4;
      over_block_penalty = Mps_rng.Rng.int_in rng 0 10 }
  in
  let r = Router.route ~config c ~die_w ~die_h rects in
  let grid =
    Route_grid.create ~die_w ~die_h ~cell:config.Router.cell ~capacity:config.Router.capacity
      rects
  in
  let pin_cells (net : Router.routed_net) =
    List.map
      (fun pin ->
        let x, y = Mps_cost.Wirelength.pin_position pin ~rects ~die_w ~die_h in
        Route_grid.cell_of_point grid ~x ~y)
      c.Circuit.nets.(net.Router.net_id).Net.pins
  in
  (config, r, pin_cells)

let connected cells =
  match cells with
  | [] -> true
  | start :: _ ->
    let todo = Hashtbl.create 64 in
    List.iter (fun cell -> Hashtbl.replace todo cell ()) cells;
    let rec visit ((c, r) as cell) =
      if Hashtbl.mem todo cell then begin
        Hashtbl.remove todo cell;
        List.iter visit [ (c - 1, r); (c + 1, r); (c, r - 1); (c, r + 1) ]
      end
    in
    visit start;
    Hashtbl.length todo = 0

let prop_routes_connect_pins =
  QCheck.Test.make ~name:"router: routed nets are connected and reach every pin" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let _, r, pin_cells = routed_case seed in
      Array.for_all
        (fun (net : Router.routed_net) ->
          (not net.Router.routed)
          || connected net.Router.cells
             && List.for_all (fun pin -> List.mem pin net.Router.cells) (pin_cells net))
        r.Router.nets)

let prop_length_counts_cells =
  QCheck.Test.make ~name:"router: length is (cells - 1) x pitch" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let config, r, _ = routed_case seed in
      Array.for_all
        (fun (net : Router.routed_net) ->
          (not net.Router.routed)
          || net.Router.length
             = float_of_int ((List.length net.Router.cells - 1) * config.Router.cell))
        r.Router.nets)

let prop_overflow_recount =
  QCheck.Test.make ~name:"router: overflow recounts from routed cells" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let config, r, _ = routed_case seed in
      let uses = Hashtbl.create 64 in
      (* a net whose pins share one cell has no wire to count *)
      Array.iter
        (fun (net : Router.routed_net) ->
          if net.Router.routed && List.length net.Router.cells > 1 then
            List.iter
              (fun cell ->
                Hashtbl.replace uses cell (1 + Option.value ~default:0 (Hashtbl.find_opt uses cell)))
              net.Router.cells)
        r.Router.nets;
      let over =
        Hashtbl.fold (fun _ n acc -> acc + max 0 (n - config.Router.capacity)) uses 0
      in
      over = r.Router.overflow)

let suite =
  [
    ("grid: shape", `Quick, test_grid_shape);
    ("grid: block interiors blocked", `Quick, test_grid_blocking);
    ("grid: pin cells can be carved", `Quick, test_grid_unblock);
    ("grid: point/cell mapping", `Quick, test_grid_cells_and_points);
    ("grid: congestion accounting", `Quick, test_grid_congestion);
    ("grid: neighbours skip obstacles", `Quick, test_grid_neighbors);
    ("router: simple two-pin net", `Quick, test_route_simple_net);
    ("router: detours around obstacles", `Quick, test_route_detours_around_obstacle);
    ("router: benchmark circuits route", `Quick, test_route_benchmark_circuits);
    ("router: deterministic", `Quick, test_route_deterministic);
    ("router: spread floorplans route longer", `Quick, test_route_longer_when_spread);
    ("router: routes identical on fixed floorplans", `Quick, test_route_identity);
    ("extraction: capacitance grows with length", `Quick, test_extraction_scales_with_length);
    ("extraction: per-pin term and errors", `Quick, test_extraction_pin_term);
    ("opamp: routed performance plausible", `Quick, test_routed_performance_plausible);
    ("synthesis loop: routed parasitics mode", `Quick, test_synth_loop_routed_mode);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_grid_blocking_brute_force;
        prop_routes_connect_pins;
        prop_length_counts_cells;
        prop_overflow_recount;
      ]
