(* sizing-routed: the full Fig. 1b loop, in process.

   Synth_loop sizes the two-stage op-amp with the multi-placement
   structure as its placer and routed extraction as its parasitics,
   over several loop seeds.  Route plus extract dominate; placement is
   a tiny share, so an engine or serving change predicts no change
   here. *)

open Mps_core
open Mps_synthesis
open Common

let run (cfg : config) =
  let process = Mps_modgen.Process.default in
  let circuit = Opamp.circuit process in
  let die_w, die_h = Mps_netlist.Circuit.default_die circuit in
  let config = Mps_experiments.Experiments.generator_config cfg.budget circuit in
  (* Set-up: generate the op-amp's structure and compile its placer —
     the once-per-topology cost the loop amortises. *)
  let setup () =
    let t0 = Clock.now_ns () in
    let structure, _ = Generator.generate_par ~config ~jobs circuit in
    let placer = Synth_loop.mps_placer structure in
    ((structure, placer), Clock.seconds_since t0)
  in
  let rec setups k times =
    let built, s = setup () in
    if k <= 1 then (built, List.rev (s :: times)) else setups (k - 1) (s :: times)
  in
  let (structure, base), setup_times = setups (max 1 cfg.setup_reps) [] in
  let setup_s = median_float setup_times in
  (* A pass runs [units] loops, each from a seed of its own, so every
     pass repeats the same candidates in the same order.  One candidate
     evaluation (place, route, extract, model) runs from one placement
     call to the next, or to the end of its loop; [j] numbers the
     candidates of a pass. *)
  let units = cfg.pass_units in
  let timings = ref [] and j = ref 0 in
  let last_place = ref 0 in
  let candidate_done now =
    if !last_place > 0 then begin
      timings := (!j, now - !last_place) :: !timings;
      incr j
    end;
    last_place := 0
  in
  (* The first pass's placements, for the checks and replays; a later
     pass must ask for the same floorplans and reach the same costs. *)
  let calls = ref [] and reference = ref None and changed = ref 0 in
  let loop_costs = Array.make units nan in
  let trace = ref Trace.disabled in
  let k_place = ref 0 in
  let placer =
    {
      Synth_loop.name = "mps";
      place =
        (fun dims ->
          let tr = !trace in
          let t0 = Clock.now_ns () in
          candidate_done t0;
          last_place := t0;
          Trace.enter tr !k_place ~id:!j;
          let rects = base.Synth_loop.place dims in
          Trace.leave tr;
          let h = hash_rects rects in
          (match !reference with
          | None -> calls := (dims, h) :: !calls
          | Some r -> if !j >= Array.length r || fst r.(!j) <> dims || snd r.(!j) <> h then incr changed);
          rects);
    }
  in
  let loop tr l =
    let k_loop = Trace.kind tr "synth_loop.run" in
    let loop_config =
      {
        Synth_loop.default_config with
        seed = derive cfg.seed (10 + l);
        iterations = cfg.sizing_iterations;
        parasitics = Synth_loop.Routed_extraction;
      }
    in
    Trace.enter tr k_loop ~id:l;
    let r = Synth_loop.run ~config:loop_config process circuit ~die_w ~die_h placer in
    candidate_done (Clock.now_ns ());
    Trace.leave tr;
    if Float.is_nan loop_costs.(l) then loop_costs.(l) <- r.Synth_loop.best_cost
    else if loop_costs.(l) <> r.Synth_loop.best_cost then incr changed
  in
  (* The timings of one phase: every candidate at its fastest, every
     timing in arrival order, and the phase's wall time. *)
  let phase tr seconds =
    trace := tr;
    k_place := Trace.kind tr "place.call";
    timings := [];
    let t0 = Clock.now_ns () in
    let k = ref 0 in
    while !k < units * cfg.min_passes || Clock.seconds_since t0 < seconds do
      if !k mod units = 0 then j := 0;
      loop tr (!k mod units);
      if !reference = None && !k = units - 1 then
        reference := Some (Array.of_list (List.rev !calls));
      incr k
    done;
    trace := Trace.disabled;
    let n = match !reference with Some r -> Array.length r | None -> 0 in
    let all = List.rev !timings in
    let fastest = best n in
    List.iter (fun (j, ns) -> if j < n then best_add fastest j ns else incr changed) all;
    (fastest, all, Clock.now_ns () - t0)
  in
  let tr = Trace.create ~enabled:cfg.trace () in
  let gc0 = ref (Gc.quick_stat ()) in
  let (untraced, untraced_all, _), traced =
    if cfg.trace then begin
      let u = phase Trace.disabled (cfg.seconds /. 2.0) in
      gc0 := Gc.quick_stat ();
      (u, Some (phase tr (cfg.seconds /. 2.0)))
    end
    else (phase Trace.disabled cfg.seconds, None)
  in
  let gc = gc_delta !gc0 (Gc.quick_stat ()) in
  (* peak RSS of the loop, before the checks build their oracle *)
  let rss_kb = Proc.peak_rss_kb 0 in
  (* Checks, outside the timing: every floorplan the loop was given
     against the heap oracle, and (traced) each one routed and
     extracted again, once per time the traced phase evaluated it, to
     time those two layers. *)
  let calls = Option.value !reference ~default:[||] in
  let engine = Structure.Engine.create structure in
  let session = Structure.Engine.new_session () in
  let mismatches = ref 0 in
  let replays = Array.make (Array.length calls) (0, 0) in
  Array.iteri
    (fun i (dims, h) ->
      ignore (Structure.Engine.query_id engine session dims);
      let rects = Structure.instantiate structure dims in
      if hash_rects rects <> h then incr mismatches;
      if cfg.trace then begin
        let t0 = Clock.now_ns () in
        let routing = Mps_route.Router.route circuit ~die_w ~die_h rects in
        let t1 = Clock.now_ns () in
        ignore (Mps_route.Extraction.extract circuit routing);
        replays.(i) <- (t1 - t0, Clock.now_ns () - t1)
      end)
    calls;
  let es = Structure.Engine.stats session in
  let best_cost = Array.fold_left ( +. ) 0.0 loop_costs /. f units in
  let latency = Hist.create (List.length untraced_all) in
  List.iter (fun (_, ns) -> Hist.add latency ns) untraced_all;
  let tail, tail_note = tail_metric ~what:"candidate evaluations" latency in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (f (Array.length calls) /. (f (best_total untraced) *. 1e-9));
      m "op_p50_us" "us" (best_median_us untraced);
      tail;
      m "cost" "cost" best_cost;
      rss_mb rss_kb;
    ]
  in
  let layers =
    match traced with
    | None -> []
    | Some (fastest, traced_all, t_wall) ->
      let place_ns = Trace.total_ns tr "place.call" in
      let self_ns = Trace.self_ns tr "synth_loop.run" in
      let route = Hist.create (List.length traced_all)
      and extract = Hist.create (List.length traced_all) in
      List.iter
        (fun (j, _) ->
          if j < Array.length replays then begin
            Hist.add route (fst replays.(j));
            Hist.add extract (snd replays.(j))
          end)
        traced_all;
      let route_extract = Hist.total route + Hist.total extract in
      [
        m "synth_loop.wall_ns" "ns" (f (Trace.total_ns tr "synth_loop.run"));
        m "synth_loop.place_ns" "ns" (f place_ns);
        m "synth_loop.self_ns" "ns" (f self_ns);
        m "engine.instantiate_p50_ns" "ns" (f (Hist.median (Trace.durations tr "place.call")));
        m "engine.instantiate_total_ns" "ns" (f place_ns);
        m "engine.stored_hit_share" "ratio"
          (share es.Structure.Engine.stored_hits es.Structure.Engine.queries);
        m "engine.hotbox_hit_ratio" "ratio"
          (share es.Structure.Engine.cache_hits es.Structure.Engine.queries);
        m "engine.fallback_share" "ratio"
          (share es.Structure.Engine.fallbacks es.Structure.Engine.queries);
        m "check.attribution_share" "ratio" (f route_extract /. f self_ns);
        m "loop.wall_ns" "ns" (f t_wall);
        m "trace.overhead_share" "ratio"
          (1.0 -. (f (best_total untraced) /. f (best_total fastest)));
        m "trace.spans" "count" (f (Trace.spans tr));
      ]
      @ Served.layer_latency "router.route" route
      @ Served.layer_latency "extraction.extract" extract
      @ gc
  in
  let evaluations =
    List.length untraced_all
    + match traced with Some (_, all, _) -> List.length all | None -> 0
  in
  {
    attempted = evaluations;
    failed = 0;
    mismatches = !mismatches + !changed;
    checked = evaluations;
    e2e;
    layers;
    notes =
      [
        ("ops_per_s", best_note untraced "candidate evaluations");
        ("cost", Printf.sprintf "mean best cost of %d loops" units);
        ("changed_between_passes", string_of_int !changed);
        setup_note setup_times;
        tail_note;
      ];
    trace = tr;
  }
