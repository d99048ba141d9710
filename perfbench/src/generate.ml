(* generate: the paper's one-time cost and the store's write side.

   Each repetition generates the structure with the parallel
   generator, saves it as an MPSZ container, maps it back cold, and
   answers a fixed probe set on the mapped engine.  No serving layer
   runs.  Generation is deterministic, so every repetition must write
   the same container; that and the mapped engine's answers against
   the heap structure's linear oracle are the correctness checks. *)

open Mps_core
open Common

let probes_n = 2048

type rep = {
  gen_ns : int;
  probe_ns : int;  (** One pass over the probe set. *)
  container : string;  (** Digest of the saved container. *)
  stats : Generator.stats;
  pool : Mps_parallel.Pool.stats array;
  peak_kb : int;  (** Peak RSS over this repetition. *)
}

let run (cfg : config) =
  let circuit = Mps_netlist.Benchmarks.by_name cfg.circuit in
  let die_w, die_h = Mps_netlist.Circuit.default_die circuit in
  let config = Mps_experiments.Experiments.generator_config cfg.budget circuit in
  let zpath = Filename.concat cfg.work "generated.mpsz" in
  let generate () =
    let pool = ref [||] in
    let t0 = Clock.now_ns () in
    let structure, stats =
      Generator.generate_par ~config ~jobs
        ~on_pool_stats:(fun s -> pool := s)
        circuit
    in
    (structure, stats, !pool, Clock.now_ns () - t0)
  in
  (* Set-up: a warm-up generation at the quick budget, so the heap has
     grown and the code is hot before the first timed repetition. *)
  let warm_config = Mps_experiments.Experiments.generator_config Quick circuit in
  let setup_times =
    List.init (max 1 cfg.setup_reps) (fun _ ->
        let t0 = Clock.now_ns () in
        ignore (Generator.generate_par ~config:warm_config ~jobs circuit);
        Clock.seconds_since t0)
  in
  let setup_s = median_float setup_times in
  let trace = Trace.create ~enabled:cfg.trace () in
  let probes = ref [||] and oracle = ref [||] and cost = ref 0.0 in
  let latency = Hist.create (1 lsl 20) in
  let hits = ref 0 and checked = ref 0 and mismatches = ref 0 in
  let reps = ref [] in
  let save_ns = Hist.create 1024 and load_ns = Hist.create 1024 in
  let bytes = ref 0 in
  let cycle trace ~id =
    let k_cycle = Trace.kind trace "generate.cycle"
    and k_gen = Trace.kind trace "generator.generate"
    and k_save = Trace.kind trace "zcodec.save"
    and k_load = Trace.kind trace "zcodec.load"
    and k_probe = Trace.kind trace "probe.pass" in
    Proc.reset_peak_rss ();
    Trace.enter trace k_cycle ~id;
    Trace.enter trace k_gen ~id;
    let structure, stats, pool, gen_ns = generate () in
    Trace.leave trace;
    Trace.enter trace k_save ~id;
    let t0 = Clock.now_ns () in
    Zcodec.save structure ~path:zpath;
    Hist.add save_ns (Clock.now_ns () - t0);
    Trace.leave trace;
    Trace.enter trace k_load ~id;
    let t0 = Clock.now_ns () in
    let view = Zcodec.load ~circuit zpath in
    Hist.add load_ns (Clock.now_ns () - t0);
    Trace.leave trace;
    bytes := view.Zcodec.bytes;
    (* the probe set and its oracle answers come from the first
       repetition; later ones must agree with them *)
    if !probes = [||] then begin
      probes := Mps_experiments.Experiments.probe_dims ~seed:(derive cfg.seed 2) ~n:probes_n structure;
      oracle := Array.map (fun d -> Served.answer_id (fst (Structure.query_linear structure d))) !probes;
      let total =
        Array.fold_left
          (fun acc d ->
            acc +. Mps_cost.Cost.total circuit ~die_w ~die_h (Structure.instantiate structure d))
          0.0 !probes
      in
      cost := total /. f probes_n
    end;
    let session = Structure.Engine.new_session () in
    let engine = view.Zcodec.engine in
    Trace.enter trace k_probe ~id;
    let t0 = Clock.now_ns () in
    let ids = Array.map (Structure.Engine.query_id engine session) !probes in
    let probe_ns = Clock.now_ns () - t0 in
    Hist.add latency probe_ns;
    Trace.leave trace;
    Array.iteri
      (fun i id ->
        incr checked;
        if id >= 0 then incr hits;
        if id <> !oracle.(i) then incr mismatches)
      ids;
    Trace.leave trace;
    let rep =
      { gen_ns; probe_ns; container = Digest.file zpath; stats; pool; peak_kb = Proc.peak_rss_kb 0 }
    in
    reps := rep :: !reps;
    rep
  in
  let phase trace seconds =
    let t0 = Clock.now_ns () in
    let rec go k acc =
      if k >= cfg.min_passes && Clock.seconds_since t0 >= seconds then List.rev acc
      else go (k + 1) (cycle trace ~id:(List.length !reps) :: acc)
    in
    go 0 []
  in
  let gc0 = ref (Gc.quick_stat ()) in
  let untraced, traced =
    if cfg.trace then begin
      let u = phase Trace.disabled (cfg.seconds /. 2.0) in
      gc0 := Gc.quick_stat ();
      (u, phase trace (cfg.seconds /. 2.0))
    end
    else (phase Trace.disabled cfg.seconds, [])
  in
  let gc = gc_delta !gc0 (Gc.quick_stat ()) in
  let all = List.rev !reps in
  let first_digest = (List.hd all).container in
  let nondeterministic = List.length (List.filter (fun r -> r.container <> first_digest) all) in
  (* Every repetition does the same work: its fastest is the figure
     (see [Common.best]). *)
  let fastest g reps = List.fold_left (fun a r -> min a (g r)) max_int reps in
  let fast_gen reps = f (fastest (fun r -> r.gen_ns) reps) *. 1e-9 in
  let tail, tail_note =
    tail_metric ~what:(Printf.sprintf "passes of %d probes over a fresh container" probes_n) latency
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (1.0 /. fast_gen untraced);
      m "op_p50_us" "us" (f (fastest (fun r -> r.probe_ns) untraced) /. 1e3);
      tail;
    ]
    @ [
        m "cost" "cost" !cost;
        (* the median repetition: with two domains the heap's growth,
           and so the process's overall peak, varied 10% between runs *)
        rss_mb (int_of_float (median_float (List.map (fun r -> f r.peak_kb) untraced)));
      ]
  in
  let layers =
    match List.rev traced with
    | [] -> []
    | last :: _ ->
      let s = last.stats in
      let wall = fast_gen traced in
      let busy = Array.fold_left (fun a p -> a +. p.Mps_parallel.Pool.busy_seconds) 0.0 last.pool in
      let sum g = Array.fold_left (fun a p -> a + g p) 0 last.pool in
      let untraced_wall = fast_gen untraced in
      [
        m "generator.wall_ns" "ns" (wall *. 1e9);
        m "generator.cost_evaluations" "count" (f s.Generator.cost_evaluations);
        m "generator.evals_per_s" "1/s" (f s.Generator.cost_evaluations /. (f last.gen_ns *. 1e-9));
        m "generator.explorer_steps" "count" (f s.Generator.explorer_steps);
        m "generator.placements" "count" (f s.Generator.placements_stored);
        m "generator.dropped_ratio" "ratio" (share s.Generator.candidates_dropped s.Generator.explorer_steps);
        m "pool.busy_ns" "ns" (busy *. 1e9);
        m "pool.busy_ratio" "ratio" (busy /. (f jobs *. f last.gen_ns *. 1e-9));
        m "pool.tasks" "count" (f (sum (fun p -> p.Mps_parallel.Pool.tasks)));
        m "pool.steals" "count" (f (sum (fun p -> p.Mps_parallel.Pool.steals)));
        m "pool.minor_words" "words"
          (Array.fold_left (fun a p -> a +. p.Mps_parallel.Pool.minor_words) 0.0 last.pool);
        m "engine.stored_hit_share" "ratio" (share !hits !checked);
        m "zcodec.save_ns" "ns" (f (Hist.median save_ns));
        m "zcodec.load_ns" "ns" (f (Hist.median load_ns));
        m "zcodec.bytes" "bytes" (f !bytes);
        m "engine.query_p50_ns" "ns" (f (Hist.median (Trace.durations trace "probe.pass")) /. f probes_n);
        m "engine.query_total_ns" "ns" (f (Trace.total_ns trace "probe.pass"));
        m "loop.self_ns" "ns" (f (Trace.self_ns trace "generate.cycle"));
        m "loop.wall_ns" "ns" (f (Trace.total_ns trace "generate.cycle"));
        m "trace.overhead_share" "ratio" (1.0 -. (untraced_wall /. wall));
        m "trace.spans" "count" (f (Trace.spans trace));
      ]
      @ gc
  in
  {
    attempted = List.length all;
    failed = 0;
    mismatches = !mismatches + nondeterministic;
    checked = !checked + List.length all;
    e2e;
    layers;
    notes =
      [
        ("generations", string_of_int (List.length all));
        ( "ops_per_s",
          Printf.sprintf "1 / fastest of %d generation wall times" (List.length untraced) );
        ( "op_p50_us",
          Printf.sprintf "fastest of %d passes of %d probes over a fresh container"
            (List.length untraced) probes_n );
        setup_note setup_times;
        tail_note;
      ];
    trace;
  }
