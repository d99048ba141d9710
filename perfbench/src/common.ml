(* What every workload receives and returns. *)

type config = {
  seed : int;
  seconds : float;  (** Length of the timed phase. *)
  trace : bool;
      (** Traced run: half the timed phase untraced, half traced; the
          layer metrics come from the traced half. *)
  mpsgen : string;  (** The daemon and generator binary. *)
  work : string;  (** Scratch directory, removed afterwards. *)
  cache : string;
      (** Directory kept between runs of one build: the served
          container. *)
  circuit : string;  (** Table 1 circuit served or generated. *)
  budget : Mps_experiments.Experiments.budget;
  setup_reps : int;  (** Set-ups per run; [setup_s] is their median. *)
  min_passes : int;
      (** Fewest timed passes over the fixed work of probe-shm,
          generate and sizing-routed (for generate, generations). *)
  pass_units : int;
      (** Distinct units of work in one pass: probe windows on
          probe-shm, sizing loops on sizing-routed. *)
  sizing_iterations : int;  (** Candidates per sizing loop. *)
}

(* Generation domains, wherever the benchmark generates.  One: with
   two, every minor collection synchronises the two domains across the
   VM's two vCPUs, and the fastest of a run's identical quick-budget
   generations read anywhere from 10.1 to 14.0 per second over five
   runs in a row; with one, 7.4 to 7.8.  The pool still runs, inline. *)
let jobs = 1

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  mismatches : int;
  checked : int;  (** Answers compared with the oracle. *)
  e2e : metric list;  (** Untraced runs: the end-to-end metrics. *)
  layers : metric list;  (** Traced runs: the per-layer metrics. *)
  notes : (string * string) list;
      (** Sample counts and percentiles behind the figures. *)
  trace : Trace.t;
}

(* Stream seeds: every input of a run derives from the workload seed
   and a stream number, never from the clock. *)
let derive seed stream = Hashtbl.seeded_hash seed (stream * 7919) land 0x3FFFFFFF

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let f = float_of_int

(* Nearest rank: the smallest value with at least [q] of the values at
   or below it. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. f n)) - 1)))

(* On walk-unix, throughput and typical latency are read from the
   fastest tenth of the run's slices: the figure that a tenth of them
   beat.  Contention on the shared host comes in bursts of seconds that
   slow every operation by up to a third (one 15 s walk-unix run swung
   between 88k and 57k steps/s from one 100 ms slice to the next).  A
   median follows the share of the run spent in bursts; the fast tenth
   follows the program, and a change that slows every operation moves
   both alike.  A stall that hits fewer than a tenth of the slices
   shows in [op_tail_us] and the traced run's p99s instead. *)
let fast_rate rates = quantile 0.9 rates
let fast_time times = quantile 0.1 times

(* [setup_s] is the median of several set-ups in one run; the note
   lists them all, in the order they ran. *)
let setup_note times =
  ( "setup_s",
    Printf.sprintf "median of %d set-ups (%s s)" (List.length times)
      (String.concat ", " (List.map (Printf.sprintf "%.4g") times)) )
let share a b = if b = 0 then 0.0 else f a /. f b

(* walk-unix's end-to-end latency pair: the median and the highest
   percentile with ten samples above it (at most p99).  A run is cut into
   consecutive slices — of about 2000 samples, or about 100 when it
   has fewer than 4000.  [op_p50_us] is the fast tenth of the slices'
   medians; [op_tail_us] is the median of their tails, so that it
   still shows stalls. *)
let latency_metrics ~what hist =
  let samples = Hist.to_array hist in
  let n = Array.length samples in
  let size = if n >= 4000 then 2000 else 100 in
  let k = max 1 (n / size) in
  let slices =
    List.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        Hist.of_array (Array.sub samples lo (hi - lo)))
  in
  let tail_p = Option.value (Hist.tail_permille (n / k)) ~default:1000 in
  let over stat g = stat (List.map (fun s -> f (g s) /. 1e3) slices) in
  ( [
      m "op_p50_us" "us" (over fast_time Hist.median);
      m "op_tail_us" "us" (over median_float (fun s -> Hist.percentile s tail_p));
    ],
    [
      ( "op_p50_us",
        Printf.sprintf "fast tenth of %d slices' p50, over %d %s" k n what );
      ( "op_tail_us",
        Printf.sprintf "median over %d slices of the p%g of about %d %s (%d above)" k
          (f tail_p /. 10.0) (n / k) what
          (Hist.beyond ~n:(n / k) tail_p) );
    ] )

(* A fixed set of units of work, each timed once per pass, keeps its
   fastest time.  The work is deterministic, so repeats of a unit do
   the same work and differ only in what the host did meanwhile: on a
   shared VM the CPU slows by up to 1.8x for seconds at a time, and a
   run's median (even its fast tenth) followed how much of the run
   those stretches covered: IQR/median over ten runs reached 25-47%.  Passes are
   spread over the run, so each unit is likely timed outside a slow
   stretch at least once; a change that slows the work slows every
   repeat, and so its fastest. *)
type best = { times : int array; mutable samples : int }

let best units = { times = Array.make (max 1 units) max_int; samples = 0 }

let best_add b unit_ ns =
  b.samples <- b.samples + 1;
  if ns < b.times.(unit_) then b.times.(unit_) <- ns

(* The fastest pass: every unit at its fastest time, in ns. *)
let best_total b = Array.fold_left ( + ) 0 b.times

let best_median_us b = median_float (Array.to_list (Array.map (fun t -> f t /. 1e3) b.times))

let best_note b what =
  Printf.sprintf "%d %s, each at its fastest of %d timings over about %.1f passes"
    (Array.length b.times) what b.samples
    (f b.samples /. f (Array.length b.times))

(* The unbounded tail over every timed unit, stalls included: the
   highest percentile (at most p99) with ten samples above it. *)
let tail_metric ~what hist =
  let n = Hist.count hist in
  let p = Option.value (Hist.tail_permille n) ~default:1000 in
  ( m "op_tail_us" "us" (f (Hist.percentile hist p) /. 1e3),
    ( "op_tail_us",
      Printf.sprintf "p%g of %d %s (%d above)" (f p /. 10.0) n what (Hist.beyond ~n p) ) )

(* walk-unix's throughput over consecutive slices of about [slice_ns]
   of measured time, read at the fast tenth of the slices. *)
type rate = {
  slice_ns : int;
  mutable ops : int;
  mutable ns : int;
  mutable total_ops : int;
  mutable total_ns : int;
  mutable rates : float list;
}

let rate ?(slice_ns = 100_000_000) () =
  { slice_ns; ops = 0; ns = 0; total_ops = 0; total_ns = 0; rates = [] }

let rate_add r ~ops ~ns =
  r.ops <- r.ops + ops;
  r.ns <- r.ns + ns;
  r.total_ops <- r.total_ops + ops;
  r.total_ns <- r.total_ns + ns;
  if r.ns >= r.slice_ns then begin
    r.rates <- (f r.ops /. (f r.ns *. 1e-9)) :: r.rates;
    r.ops <- 0;
    r.ns <- 0
  end

let rate_fast r =
  if r.rates = [] then f r.total_ops /. (f r.total_ns *. 1e-9) else fast_rate r.rates

let rate_note r what =
  ( "ops_per_s",
    Printf.sprintf "fast tenth of %d slices, over %d %s" (List.length r.rates) r.total_ops what )

let rss_mb kb = m "rss_mb" "MB" (f kb /. 1024.0)

(* GC counters of the calling domain over a phase. *)
let gc_delta before after =
  [
    m "gc.minor_words" "words" (after.Gc.minor_words -. before.Gc.minor_words);
    m "gc.major_collections" "count"
      (f (after.Gc.major_collections - before.Gc.major_collections));
  ]

let hash_rects rects =
  Array.fold_left
    (fun h (r : Mps_geometry.Rect.t) ->
      let mix h v = (h lxor v) * 0x100000001b3 in
      mix (mix (mix (mix h r.x) r.y) r.w) r.h)
    0x0bf29ce484222325 rects
  land max_int
