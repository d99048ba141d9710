(* Every metric the benchmark reports, with its unit and direction.
   Every workload reports every end-to-end metric.  Every per-layer
   metric appears in every traced run; a layer a workload does not
   exercise reports 0. *)

type direction = Lower | Higher | Zero

let direction_to_string = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Zero -> "must stay 0"

(* What each one measures on each workload is in README.md.  The
   tail latency, [op_tail_us], is printed with them but carries no
   bound: on walk-unix its spread across runs on a shared 2-vCPU VM
   reached 19-44%. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("ops_per_s", "1/s", Higher);
    ("op_p50_us", "us", Lower);
    ("cost", "cost", Lower);
    ("rss_mb", "MB", Lower);
  ]

let unbounded = [ ("op_tail_us", "us", Lower) ]

(* Each end-to-end metric's name for what it measures on a workload. *)
let named workload metric =
  match (workload, metric) with
  | "walk-unix", "ops_per_s" -> "steps_per_s"
  | "walk-unix", "op_p50_us" -> "place_p50_us"
  | "walk-unix", "op_tail_us" -> "place_p99_us"
  | "probe-shm", "ops_per_s" -> "queries_per_s"
  | "probe-shm", "op_p50_us" -> "window_p50_us"
  | "probe-shm", "op_tail_us" -> "window_p99_us"
  | "generate", "ops_per_s" -> "1/gen_s"
  | "generate", "op_p50_us" -> "probe_pass_p50_us"
  | "generate", "op_tail_us" -> "probe_pass_tail_us"
  | "generate", "cost" -> "probe_cost"
  | "sizing-routed", "ops_per_s" -> "evals_per_s"
  | "sizing-routed", "op_p50_us" -> "eval_p50_us"
  | "sizing-routed", "op_tail_us" -> "eval_p99_us"
  | "sizing-routed", "cost" -> "best_cost"
  | _ -> metric

let per_layer =
  [
    ("client.call_p50_ns", "ns"); ("client.call_p99_ns", "ns"); ("client.call_total_ns", "ns");
    ("client.calls", "count"); ("client.failed", "count"); ("client.retries", "count");
    ("client.connects", "count"); ("shm.ring_share", "ratio");
    ("supervisor.requests_served", "count"); ("supervisor.queries_served", "count");
    ("supervisor.shm_served", "count"); ("supervisor.timeouts", "count");
    ("supervisor.overloaded", "count"); ("supervisor.worker_crashes", "count");
    ("engine.query_p50_ns", "ns"); ("engine.query_total_ns", "ns");
    ("engine.instantiate_p50_ns", "ns"); ("engine.instantiate_total_ns", "ns");
    ("engine.stored_hit_share", "ratio"); ("engine.hotbox_hit_ratio", "ratio"); ("engine.fallback_share", "ratio");
    ("serve.overhead_p50_ns", "ns"); ("serve.overhead_total_ns", "ns");
    ("cost.eval_p50_ns", "ns"); ("cost.eval_total_ns", "ns");
    ("generator.wall_ns", "ns"); ("generator.cost_evaluations", "count");
    ("generator.evals_per_s", "1/s"); ("generator.explorer_steps", "count");
    ("generator.placements", "count"); ("generator.dropped_ratio", "ratio");
    ("pool.busy_ns", "ns"); ("pool.busy_ratio", "ratio"); ("pool.tasks", "count");
    ("pool.steals", "count"); ("pool.minor_words", "words");
    ("zcodec.save_ns", "ns"); ("zcodec.load_ns", "ns"); ("zcodec.bytes", "bytes");
    ("synth_loop.wall_ns", "ns"); ("synth_loop.place_ns", "ns"); ("synth_loop.self_ns", "ns");
    ("router.route_p50_ns", "ns"); ("router.route_total_ns", "ns");
    ("extraction.extract_p50_ns", "ns"); ("extraction.extract_total_ns", "ns");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("loop.self_ns", "ns"); ("loop.wall_ns", "ns");
    ("check.attribution_share", "ratio"); ("check.mismatch_count", "count");
    ("check.failed_share", "ratio"); ("trace.overhead_share", "ratio"); ("trace.spans", "count");
  ]
