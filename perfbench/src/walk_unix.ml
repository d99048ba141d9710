(* walk-unix: a closed-loop sizing walk served over the Unix socket.

   One client, one connection, batch 1: each step bumps one axis by
   +-1 (or, with probability 1/64, jumps to a stored placement's best
   dimensions), asks the daemon to instantiate the floorplan and
   costs what comes back.  The per-request path dominates here; the
   engine answers mostly from its hot box. *)

open Mps_geometry
open Mps_core
open Mps_serve
open Common

let walk_step rng stored bounds current =
  if Mps_rng.Rng.int rng 64 = 0 then
    stored.(Mps_rng.Rng.int rng (Array.length stored)).Stored.best_dims
  else begin
    let i = Mps_rng.Rng.int rng (Dims.n_blocks current) in
    let delta = if Mps_rng.Rng.int rng 2 = 0 then 1 else -1 in
    let d =
      if Mps_rng.Rng.int rng 2 = 0 then
        Dims.set_width current i (max 1 (Dims.width current i + delta))
      else Dims.set_height current i (max 1 (Dims.height current i + delta))
    in
    Dimbox.clamp bounds d
  end

let ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 n)

(* [cost] is the mean over the walk's first steps, so that it depends
   on the seed and the served answers alone, not on how many steps the
   host managed before the deadline. *)
let cost_prefix = 65536

let run (cfg : config) =
  let p = Served.prepare cfg in
  let circuit = p.Served.circuit in
  let name = circuit.Mps_netlist.Circuit.name in
  let die_w, die_h = Structure.die p.Served.structure in
  let bounds = Mps_netlist.Circuit.dim_bounds circuit in
  let stored = Structure.placements p.Served.structure in
  let origin = Dimbox.center bounds in
  let first client =
    Result.map ignore (Client.instantiate ~budget:10.0 client ~circuit:name [| origin |])
  in
  let daemon, setup_s, setup_notes = Served.setup cfg p ~shm:false ~first in
  let client = daemon.Served.client in
  (* Per-step records, read back by the checks after the timed phase:
     a 32-bit digest of each served floorplan (-1 when the request
     failed) and, traced, each call's latency. *)
  let cap = int_of_float (cfg.seconds *. 400_000.0) + 1024 in
  let hashes = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout cap in
  let lat = ints (if cfg.trace then cap else 1) in
  let digest rects = Int32.of_int (hash_rects rects land 0x3FFFFFFF) in
  let cost_sum = ref 0.0 and cost_n = ref 0 in
  let latency = Hist.create cap in
  let stream () = Mps_rng.Rng.create ~seed:(derive cfg.seed 1) in
  let rng = stream () in
  let current = ref origin in
  let steps = ref 0 and failed = ref 0 in
  let phase trace rate seconds =
    let k_step = Trace.kind trace "walk.step"
    and k_call = Trace.kind trace "client.call"
    and k_cost = Trace.kind trace "cost.eval" in
    let first = !steps in
    let t_start = Clock.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    let now = ref t_start in
    while !now < deadline && !steps < cap do
      let i = !steps in
      Trace.enter trace k_step ~id:i;
      current := walk_step rng stored bounds !current;
      Trace.enter trace k_call ~id:i;
      let t0 = Clock.now_ns () in
      let reply = Client.instantiate ~budget:5.0 client ~circuit:name [| !current |] in
      let dt = Clock.now_ns () - t0 in
      Trace.leave trace;
      if cfg.trace then lat.{i} <- dt;
      Hist.add latency dt;
      (match reply with
      | Ok ([| rects |], _) ->
        Trace.enter trace k_cost ~id:i;
        let cost = (Mps_cost.Cost.evaluate circuit ~die_w ~die_h rects).Mps_cost.Cost.total in
        Trace.leave trace;
        hashes.{i} <- digest rects;
        if i < cost_prefix then begin
          cost_sum := !cost_sum +. cost;
          incr cost_n
        end
      | Ok _ | Error _ ->
        incr failed;
        hashes.{i} <- -1l);
      Trace.leave trace;
      steps := i + 1;
      let t = Clock.now_ns () in
      rate_add rate ~ops:1 ~ns:(t - !now);
      now := t
    done;
    (!steps - first, Clock.now_ns () - t_start)
  in
  let trace = Trace.create ~enabled:cfg.trace () in
  let gc0 = ref (Gc.quick_stat ()) in
  let untraced = rate () and traced = rate () in
  let traced_from, traced_ns =
    if cfg.trace then begin
      let n0, _ = phase Trace.disabled untraced (cfg.seconds /. 2.0) in
      gc0 := Gc.quick_stat ();
      (n0, snd (phase trace traced (cfg.seconds /. 2.0)))
    end
    else (fst (phase Trace.disabled untraced cfg.seconds), 0)
  in
  let gc = gc_delta !gc0 (Gc.quick_stat ()) in
  let supervisor = if cfg.trace then Served.supervisor_counters client else [] in
  let client_stats = Served.client_counters client ~failed:!failed in
  let daemon_kb = Served.stop daemon and bench_kb = Proc.peak_rss_kb 0 in
  (* Checks, outside the timing: replay the same stream against the
     heap oracle, and through an engine mapped from the served
     container for the layer figures. *)
  let n = !steps in
  let rng = stream () in
  let current = ref origin in
  let session = Structure.Engine.new_session () in
  let q_session = Structure.Engine.new_session () in
  let engine = p.Served.engine in
  let eq = Hist.create n and ei = Hist.create n and overhead = Hist.create n in
  let mismatches = ref 0 and checked = ref 0 in
  for i = 0 to n - 1 do
    current := walk_step rng stored bounds !current;
    let dims = !current in
    let t0 = Clock.now_ns () in
    ignore (Structure.Engine.instantiate_into engine session dims);
    let t1 = Clock.now_ns () in
    if hashes.{i} >= 0l then begin
      incr checked;
      if digest (Structure.instantiate p.Served.structure dims) <> hashes.{i} then
        incr mismatches
    end;
    if cfg.trace && i >= traced_from then begin
      let t2 = Clock.now_ns () in
      ignore (Structure.Engine.query_id engine q_session dims);
      Hist.add eq (Clock.now_ns () - t2);
      Hist.add ei (t1 - t0);
      Hist.add overhead (max 0 (lat.{i} - (t1 - t0)))
    end
  done;
  let es = Structure.Engine.stats session in
  let lat_metrics, lat_notes = latency_metrics ~what:"placement calls" latency in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (rate_fast untraced);
    ]
    @ lat_metrics
    @ [
        m "cost" "cost" (if !cost_n = 0 then 0.0 else !cost_sum /. f !cost_n);
        rss_mb daemon_kb;
      ]
  in
  let layers =
    if not cfg.trace then []
    else begin
      let calls = Trace.durations trace "client.call" in
      let call_total = Hist.total calls in
      let cost_total = Trace.total_ns trace "cost.eval" in
      let loop_self = Trace.self_ns trace "walk.step" in
      [
        m "client.call_p50_ns" "ns" (f (Hist.median calls));
        m "client.call_p99_ns" "ns" (f (Hist.percentile calls 990));
        m "client.call_total_ns" "ns" (f call_total);
        m "client.calls" "count" (f (Hist.count calls));
      ]
      @ client_stats @ supervisor
      @ [
          m "shm.ring_share" "ratio"
            (share (Client.stats client).Client.ring_requests (Hist.count calls));
          m "engine.stored_hit_share" "ratio"
            (share es.Structure.Engine.stored_hits es.Structure.Engine.queries);
          m "engine.hotbox_hit_ratio" "ratio"
            (share es.Structure.Engine.cache_hits es.Structure.Engine.queries);
          m "engine.fallback_share" "ratio"
            (share es.Structure.Engine.fallbacks es.Structure.Engine.queries);
        ]
      @ Served.layer_latency "engine.query" eq
      @ Served.layer_latency "engine.instantiate" ei
      @ Served.layer_latency "serve.overhead" overhead
      @ Served.layer_latency "cost.eval" (Trace.durations trace "cost.eval")
      @ [
          m "loop.self_ns" "ns" (f loop_self);
          m "loop.wall_ns" "ns" (f traced_ns);
          m "check.attribution_share" "ratio"
            (f (call_total + cost_total + loop_self) /. f traced_ns);
          m "zcodec.bytes" "bytes" (f p.Served.container_bytes);
          m "zcodec.load_ns" "ns" (f p.Served.load_ns);
          m "trace.overhead_share" "ratio" (1.0 -. (rate_fast traced /. rate_fast untraced));
          m "trace.spans" "count" (f (Trace.spans trace));
        ]
      @ gc
    end
  in
  {
    attempted = n;
    failed = !failed;
    mismatches = !mismatches;
    checked = !checked;
    e2e;
    layers;
    notes =
      setup_notes
      @ [ rate_note untraced "walk steps"; Served.rss_note ~bench_kb;
          ("cost", Printf.sprintf "mean over the first %d steps" !cost_n) ]
      @ lat_notes;
    trace;
  }
