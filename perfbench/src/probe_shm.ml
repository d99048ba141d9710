(* probe-shm: the Table 2 probe mix served over the shared-memory ring.

   Windows of 16 batches of 64 queries, pipelined 16 deep through the
   ring with descriptor replies.  Half the probes are uniform over the
   designer space and half jitter a stored placement's best
   dimensions, so the engine's narrowing does the work and per-request
   cost is amortised: the opposite balance to walk-unix. *)

open Mps_geometry
open Mps_core
open Mps_serve
open Common

let batch = 64
let depth = 16
let window = batch * depth

(* Ids are small (-2 .. stored count), so two bytes each keep a pass's
   answers resident cheaply; [unanswered] marks a query not answered
   yet. *)
let unanswered = -32768

(* The Table 2 probe mix of [Experiments.probe_dims]: even probes
   uniform over the designer space, odd ones a stored placement's best
   dimensions jittered by up to 2 per axis and clamped.  Drawn into
   fresh arrays without per-axis copies, so making a window costs
   little next to serving it. *)
let probes rng ~bounds ~stored n =
  let nb = Dimbox.n_blocks bounds in
  Array.init n (fun k ->
      let w = Array.make nb 0 and h = Array.make nb 0 in
      if k land 1 = 0 then Dimbox.random_dims_into rng bounds ~w ~h
      else begin
        let base = stored.(Mps_rng.Rng.int rng (Array.length stored)).Stored.best_dims in
        for i = 0 to nb - 1 do
          let jitter v = v + Mps_rng.Rng.int_in rng (-2) 2 in
          w.(i) <- Interval.clamp (Dimbox.w_interval bounds i) (jitter (Dims.width base i));
          h.(i) <- Interval.clamp (Dimbox.h_interval bounds i) (jitter (Dims.height base i))
        done
      end;
      Dims.unsafe_of_arrays ~w ~h)

(* One window in [oracle_stride] is also checked against the linear
   oracle; every answer is checked against a heap-compiled engine. *)
let oracle_stride = 16

let run (cfg : config) =
  let p = Served.prepare cfg in
  let circuit = p.Served.circuit in
  let name = circuit.Mps_netlist.Circuit.name in
  let bounds = Mps_netlist.Circuit.dim_bounds circuit in
  let stored = Structure.placements p.Served.structure in
  let origin = Dimbox.center bounds in
  let first client =
    Result.map ignore (Client.query_ids ~budget:10.0 client ~circuit:name [| origin |])
  in
  let daemon, setup_s, setup_notes = Served.setup cfg p ~shm:true ~first in
  let client = daemon.Served.client in
  (* A pass sends [units] distinct windows; window [w]'s probes come
     from a stream of their own, so every pass remakes the same ones. *)
  let units = cfg.pass_units in
  let window_probes w =
    probes (Mps_rng.Rng.create ~seed:(derive cfg.seed (1000 + w))) ~bounds ~stored window
  in
  (* The first answer to each query, for the checks; a later pass must
     give the same one. *)
  let ids = Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout (units * window) in
  Bigarray.Array1.fill ids unanswered;
  let requests = ref 0 and failed = ref 0 and changed = ref 0 in
  let cap = int_of_float (cfg.seconds *. 3000.0) + (units * cfg.min_passes) in
  (* Served queries per second of waiting on the daemon: the window
     calls' time, without the client making its probes. *)
  let phase trace seconds =
    let k_window = Trace.kind trace "probe.window" and k_call = Trace.kind trace "client.call" in
    let fastest = best units and latency = Hist.create cap in
    let t_start = Clock.now_ns () in
    let deadline = t_start + int_of_float (seconds *. 1e9) in
    let k = ref 0 in
    while !k < units * cfg.min_passes || Clock.now_ns () < deadline do
      let w = !k mod units in
      Trace.enter trace k_window ~id:!k;
      let dims = window_probes w in
      let batches = Array.init depth (fun b -> Array.sub dims (b * batch) batch) in
      Trace.enter trace k_call ~id:!k;
      let t0 = Clock.now_ns () in
      let results =
        Client.query_ids_pipelined ~budget:5.0 ~depth client ~circuit:name batches
      in
      let dt = Clock.now_ns () - t0 in
      Trace.leave trace;
      best_add fastest w dt;
      Hist.add latency dt;
      requests := !requests + depth;
      Array.iteri
        (fun b r ->
          let base = (w * window) + (b * batch) in
          match r with
          | Ok (answer, _) when Array.length answer = batch ->
            Array.iteri
              (fun i id ->
                let first = ids.{base + i} in
                if first = unanswered then ids.{base + i} <- id
                else if first <> id then incr changed)
              answer
          | Ok _ | Error _ -> incr failed)
        results;
      Trace.leave trace;
      incr k
    done;
    (fastest, latency, Clock.now_ns () - t_start)
  in
  let ring0 = (Client.stats client).Client.ring_requests in
  let trace = Trace.create ~enabled:cfg.trace () in
  let gc0 = ref (Gc.quick_stat ()) in
  let (untraced, latency, _), traced =
    if cfg.trace then begin
      let u = phase Trace.disabled (cfg.seconds /. 2.0) in
      gc0 := Gc.quick_stat ();
      (u, Some (phase trace (cfg.seconds /. 2.0)))
    end
    else (phase Trace.disabled cfg.seconds, None)
  in
  let gc = gc_delta !gc0 (Gc.quick_stat ()) in
  let supervisor = if cfg.trace then Served.supervisor_counters client else [] in
  let client_stats = Served.client_counters client ~failed:!failed in
  let ring_requests = (Client.stats client).Client.ring_requests - ring0 in
  let daemon_kb = Served.stop daemon and bench_kb = Proc.peak_rss_kb 0 in
  (* Checks, outside the timing: remake every window; every served id
     against an engine compiled from the heap structure, sampled
     windows against the linear oracle, and (traced) each window
     replayed on an engine mapped from the served container. *)
  let oracle = Structure.Engine.create p.Served.structure in
  let oracle_session = Structure.Engine.new_session () in
  let session = Structure.Engine.new_session () in
  let eq = Hist.create (if cfg.trace then units * window else 1) in
  let overhead = Hist.create units in
  let mismatches = ref 0 and checked = ref 0 and hits = ref 0 in
  let cost_sum = ref 0.0 and cost_n = ref 0 in
  let die_w, die_h = Structure.die p.Served.structure in
  for w = 0 to units - 1 do
    let dims = window_probes w in
    let engine_ns = ref 0 in
    Array.iteri
      (fun i d ->
        let served_id = ids.{(w * window) + i} in
        if cfg.trace then begin
          let t0 = Clock.now_ns () in
          ignore (Structure.Engine.query_id p.Served.engine session d);
          let dt = Clock.now_ns () - t0 in
          Hist.add eq dt;
          engine_ns := !engine_ns + dt
        end;
        if served_id <> unanswered then begin
          incr checked;
          if served_id >= 0 then incr hits;
          let expected = Structure.Engine.query_id oracle oracle_session d in
          let linear =
            if w mod oracle_stride <> 0 then expected
            else Served.answer_id (fst (Structure.query_linear p.Served.structure d))
          in
          if expected <> served_id || linear <> served_id then incr mismatches;
          (* quality: the floorplans behind the first 4096 probes *)
          if !cost_n < 4096 then begin
            incr cost_n;
            cost_sum :=
              !cost_sum
              +. Mps_cost.Cost.total circuit ~die_w ~die_h
                   (Structure.instantiate p.Served.structure d)
          end
        end)
      dims;
    match traced with
    | Some (fastest, _, _) -> Hist.add overhead (max 0 (fastest.times.(w) - !engine_ns))
    | None -> ()
  done;
  let tail, tail_note = tail_metric ~what:"pipelined windows" latency in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (f (units * window) /. (f (best_total untraced) *. 1e-9));
      m "op_p50_us" "us" (best_median_us untraced);
      tail;
      m "cost" "cost" (if !cost_n = 0 then 0.0 else !cost_sum /. f !cost_n);
      rss_mb daemon_kb;
    ]
  in
  let layers =
    match traced with
    | None -> []
    | Some (fastest, _, traced_ns) ->
      let calls = Trace.durations trace "client.call" in
      let call_total = Hist.total calls in
      let loop_self = Trace.self_ns trace "probe.window" in
      let es = Structure.Engine.stats session in
      [
        m "client.call_p50_ns" "ns" (f (Hist.median calls));
        m "client.call_p99_ns" "ns" (f (Hist.percentile calls 990));
        m "client.call_total_ns" "ns" (f call_total);
        m "client.calls" "count" (f (Hist.count calls));
        m "engine.stored_hit_share" "ratio" (share !hits !checked);
        m "shm.ring_share" "ratio" (share ring_requests !requests);
        m "engine.hotbox_hit_ratio" "ratio"
          (share es.Structure.Engine.cache_hits es.Structure.Engine.queries);
        m "engine.fallback_share" "ratio"
          (share es.Structure.Engine.fallbacks es.Structure.Engine.queries);
      ]
      @ client_stats @ supervisor
      @ Served.layer_latency "engine.query" eq
      @ Served.layer_latency "serve.overhead" overhead
      @ [
          m "loop.self_ns" "ns" (f loop_self);
          m "loop.wall_ns" "ns" (f traced_ns);
          m "check.attribution_share" "ratio" (f (call_total + loop_self) /. f traced_ns);
          m "zcodec.bytes" "bytes" (f p.Served.container_bytes);
          m "zcodec.load_ns" "ns" (f p.Served.load_ns);
          m "trace.overhead_share" "ratio"
            (1.0 -. (f (best_total untraced) /. f (best_total fastest)));
          m "trace.spans" "count" (f (Trace.spans trace));
        ]
      @ gc
  in
  {
    attempted = !requests;
    failed = !failed;
    mismatches = !mismatches + !changed;
    checked = !checked;
    e2e;
    layers;
    notes =
      setup_notes
      @ [
          ("ops_per_s", best_note untraced (Printf.sprintf "windows of %d queries" window));
          Served.rss_note ~bench_kb;
          ("requests", string_of_int !requests);
          ("ring_requests", string_of_int ring_requests);
          ("changed_between_passes", string_of_int !changed);
          tail_note;
        ];
    trace;
  }
