(* What the two served workloads share: the structure the daemon
   serves, the daemon's lifecycle, and the supervisor counters. *)

open Mps_core
open Mps_serve
open Common

type prepared = {
  circuit : Mps_netlist.Circuit.t;
  store_dir : string;
  engine : Structure.Engine.t;  (** Mapped from the served container. *)
  structure : Structure.t;  (** The heap oracle. *)
  container_bytes : int;
  load_ns : int;  (** This process's own cold map of the container. *)
}

(* Generate the served structure with [mpsgen generate] in a child
   process, so the benchmark's own heap (and RSS) holds only what
   serving needs.  Generation is deterministic: every run serves the
   same container.  A full-budget generation takes over ten seconds
   here, so the container is kept in [cfg.cache], whose name carries
   the digest of the sources: later runs of the same build copy it,
   and a changed program generates afresh. *)
let prepare (cfg : config) =
  let circuit = Mps_netlist.Benchmarks.by_name cfg.circuit in
  let store_dir = Filename.concat cfg.work "store" in
  Proc.mkdir_p store_dir;
  let zpath = Store.zpath_for (Store.create ~dir:store_dir ()) circuit.Mps_netlist.Circuit.name in
  let budget =
    match cfg.budget with Mps_experiments.Experiments.Quick -> "quick" | Full -> "full"
  in
  let cached = Filename.concat cfg.cache (Printf.sprintf "%s-%s.mpsz" cfg.circuit budget) in
  let generate () =
    let fresh = Filename.concat cfg.work "generated.mpsz" in
    let log = Filename.concat cfg.work "generate.log" in
    let pid =
      Proc.spawn ~log cfg.mpsgen
        [ "generate"; cfg.circuit; "--budget"; budget; "--jobs"; string_of_int jobs;
          "--format"; "mpsz"; "-o"; fresh ]
    in
    (match Proc.wait pid with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith ("mpsgen generate failed: " ^ In_channel.with_open_bin log In_channel.input_all));
    Proc.mkdir_p cfg.cache;
    Sys.rename fresh cached
  in
  if not (Sys.file_exists cached) then generate ();
  (* a copy, not a link: nothing the daemon does can reach the cache *)
  let data = In_channel.with_open_bin cached In_channel.input_all in
  Out_channel.with_open_bin zpath (fun oc -> Out_channel.output_string oc data);
  let t0 = Clock.now_ns () in
  let view = Zcodec.load ~circuit zpath in
  let load_ns = Clock.now_ns () - t0 in
  {
    circuit;
    store_dir;
    engine = view.Zcodec.engine;
    structure = Structure.Engine.structure view.Zcodec.engine;
    container_bytes = view.Zcodec.bytes;
    load_ns;
  }

type daemon = { pid : int; out : Unix.file_descr; client : Client.t }

(* Where the benchmark and its daemon run: both on one CPU.  Each
   request crosses between the two processes, and on a shared 2-vCPU VM
   the cost of crossing between its vCPUs changed from one run to the
   next as the host moved them: over the socket a cross-CPU wakeup per
   request nearly doubled the step time (46-55k against 91-98k steps/s),
   and over the shm ring, with one CPU each, the fastest passes of four
   runs in a row read 756k, 745k, 672k and 653k queries/s.  Sharing a
   CPU, the ring's waiting side spins briefly and then sleeps, so its
   peer gets the CPU.  Where the benchmark cannot pin itself, both run
   unpinned. *)
let bench_cpu = if Domain.recommended_domain_count () > 1 then 1 else 0

(* Start a daemon and wait until [first] (the workload's first real
   request, which loads the container and, for shm, negotiates the
   ring) has been answered.  The daemon prints one line on standard
   output once its socket is bound; the benchmark blocks on that line
   rather than polling, so it takes no CPU from the daemon while it
   boots.  The set-up time runs from the spawn to the first answer. *)
let start (cfg : config) p ~shm ~first =
  let sock = Filename.concat cfg.work "mpsd.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = Clock.now_ns () in
  let pid, out =
    Proc.spawn_piped ~log:(Filename.concat cfg.work "mpsd.log") cfg.mpsgen
      [ "serve"; "--dir"; p.store_dir; "--workers"; "1"; "--socket"; sock ]
  in
  (match Proc.read_line_from ~timeout:30.0 out with
  | Some _ -> ()
  | None ->
    failwith
      ("daemon did not come up: "
      ^ In_channel.with_open_bin (Filename.concat cfg.work "mpsd.log") In_channel.input_all));
  let client = Client.connect ~shm (Server.Unix_path sock) in
  (match first client with
  | Ok () -> ()
  | Error e -> failwith ("first request failed: " ^ Client.error_to_string e));
  ({ pid; out; client }, Clock.seconds_since t0)

(* On the served workloads [rss_mb] is the daemon's peak RSS: the
   program's memory.  The benchmark's own peak, read after the timed
   phase and before the checks, holds per-request records that grow
   with throughput, so it is a note and carries no bound. *)
let rss_note ~bench_kb =
  ("rss_mb", Printf.sprintf "daemon peak; the benchmark's own peak was %.1f MB" (f bench_kb /. 1024.0))

let stop d =
  Client.close d.client;
  let kb = Proc.peak_rss_kb d.pid in
  Proc.terminate d.pid;
  Unix.close d.out;
  kb

(* [reps] set-ups; all but the last daemon are stopped again.  The
   surviving daemon, the median set-up time, and notes of the CPU
   placement and every set-up time. *)
let setup (cfg : config) p ~shm ~first =
  let cpus =
    if Proc.pin_self bench_cpu then Printf.sprintf "benchmark and daemon share CPU %d" bench_cpu
    else "unpinned"
  in
  let rec go k times =
    let d, s = start cfg p ~shm ~first in
    if k <= 1 then (d, median_float (s :: times), [ ("cpus", cpus); setup_note (List.rev (s :: times)) ])
    else begin
      ignore (stop d);
      (* spread the set-ups over two seconds, so that their median is
         not one burst of contention on the shared host *)
      Unix.sleepf 0.2;
      go (k - 1) (s :: times)
    end
  in
  go (max 1 cfg.setup_reps) []

(* The supervisor's counters, read once through the stats request. *)
let supervisor_counters client =
  match Client.server_stats ~budget:5.0 client with
  | Error _ -> []
  | Ok (text, _) ->
    let after key fmt k =
      let n = String.length key and len = String.length text in
      let rec find i =
        if i + n > len then None
        else if String.sub text i n = key then
          try Some (Scanf.sscanf (String.sub text i (len - i)) fmt k)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
        else find (i + 1)
      in
      find 0
    in
    let c name v = m ("supervisor." ^ name) "count" (f v) in
    let served =
      after "accepted " "accepted %d, shed %d, served %d requests / %d queries (%d degraded), timeouts %d, overloaded %d"
        (fun _ _ r q _ t o -> [ c "requests_served" r; c "queries_served" q; c "timeouts" t; c "overloaded" o ])
    in
    let crashes = after "worker crashes " "worker crashes %d" (fun n -> [ c "worker_crashes" n ]) in
    let shm = after "shm: " "shm: %d sessions, %d requests served" (fun _ n -> [ c "shm_served" n ]) in
    List.concat_map (Option.value ~default:[]) [ served; crashes; shm ]

let client_counters client ~failed =
  let s = Client.stats client in
  [
    m "client.failed" "count" (f failed);
    m "client.retries" "count" (f s.Client.retries);
    m "client.connects" "count" (f s.Client.connects);
  ]

(* Per-call latency summary of one layer, from a histogram in ns. *)
let layer_latency prefix hist =
  [
    m (prefix ^ "_p50_ns") "ns" (f (Hist.median hist));
    m (prefix ^ "_total_ns") "ns" (f (Hist.total hist));
  ]

let answer_id = function
  | Structure.Stored_placement i -> i
  | Structure.Fallback -> -1
  | Structure.Out_of_domain -> -2
