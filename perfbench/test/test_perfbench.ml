(* The benchmark's own tests: percentile and self-time arithmetic, and
   a tiny run of every workload. *)

open Perfbench

let hist_of list = Hist.of_array (Array.of_list list)

let test_percentiles () =
  let h = hist_of (List.init 1000 (fun i -> 1000 - i)) in
  Alcotest.(check int) "median of 1..1000" 500 (Hist.median h);
  Alcotest.(check int) "p99 of 1..1000" 990 (Hist.percentile h 990);
  Alcotest.(check int) "p100 is the maximum" 1000 (Hist.percentile h 1000);
  Alcotest.(check int) "p0 is the minimum" 1 (Hist.percentile h 0);
  Alcotest.(check int) "total" 500500 (Hist.total h);
  Alcotest.(check int) "one sample" 7 (Hist.median (hist_of [ 7 ]));
  Alcotest.(check int) "empty" 0 (Hist.median (Hist.create 4))

let test_tail () =
  Alcotest.(check (option int)) "1000 samples reach p99" (Some 990) (Hist.tail_permille 1000);
  Alcotest.(check (option int)) "p99 is the cap" (Some 990) (Hist.tail_permille 100_000);
  Alcotest.(check (option int)) "too few samples" None (Hist.tail_permille 10);
  List.iter
    (fun n ->
      match Hist.tail_permille n with
      | None -> Alcotest.fail "expected a tail"
      | Some p ->
        let above = Hist.beyond ~n p in
        if above < 10 then Alcotest.failf "n=%d p=%d leaves %d above" n p above;
        if p < 990 && Hist.beyond ~n (p + 1) >= 10 then
          Alcotest.failf "n=%d: p%d is not the highest" n p)
    [ 11; 12; 250; 500; 777; 999; 1001; 12345 ]

let test_capacity () =
  let h = Hist.create 2 in
  List.iter (Hist.add h) [ 5; 6; 7 ];
  Alcotest.(check int) "kept" 2 (Hist.count h);
  Alcotest.(check int) "total counts every sample" 18 (Hist.total h)

let test_self_time () =
  let now = ref 0 in
  let t = Trace.create ~clock:(fun () -> !now) ~enabled:true () in
  let outer = Trace.kind t "outer" and child = Trace.kind t "child" in
  let leaf = Trace.kind t "leaf" in
  let at v = now := v in
  at 0;
  Trace.enter t outer ~id:1;
  at 10;
  Trace.enter t child ~id:1;
  at 30;
  Trace.leave t;
  at 40;
  Trace.enter t child ~id:1;
  at 45;
  Trace.enter t leaf ~id:1;
  at 55;
  Trace.leave t;
  at 70;
  Trace.leave t;
  at 100;
  Trace.leave t;
  Alcotest.(check int) "outer total" 100 (Trace.total_ns t "outer");
  Alcotest.(check int) "outer self: minus both children" 50 (Trace.self_ns t "outer");
  Alcotest.(check int) "child total" 50 (Trace.total_ns t "child");
  Alcotest.(check int) "child self: minus the leaf" 40 (Trace.self_ns t "child");
  Alcotest.(check int) "leaf self" 10 (Trace.self_ns t "leaf");
  Alcotest.(check int) "spans" 4 (Trace.spans t);
  Alcotest.(check int) "unknown kind" 0 (Trace.self_ns t "nothing")

let test_disabled () =
  let t = Trace.create ~enabled:false () in
  let k = Trace.kind t "k" in
  Trace.enter t k ~id:0;
  Trace.leave t;
  Alcotest.(check int) "nothing recorded" 0 (Trace.spans t)

let test_slices () =
  (* one slow slice among many moves neither the median nor the tail *)
  let steady = List.init 20_000 (fun i -> 1000 + (i mod 100)) in
  let burst = List.init 2000 (fun _ -> 50_000) in
  let metrics, notes = Common.latency_metrics ~what:"calls" (hist_of (burst @ steady)) in
  let get name = (List.find (fun x -> x.Common.name = name) metrics).Common.value in
  Alcotest.(check (float 1e-9)) "p50" 1.049 (get "op_p50_us");
  Alcotest.(check (float 1e-9)) "p99" 1.098 (get "op_tail_us");
  Alcotest.(check bool) "notes name the slices" true
    (String.length (List.assoc "op_tail_us" notes) > 0)

let test_rate () =
  let r = Common.rate ~slice_ns:100 () in
  (* eight slow slices and two fast ones: the median is slow, the fast
     tenth is fast *)
  List.iter (fun ns -> Common.rate_add r ~ops:10 ~ns)
    [ 1000; 100; 1000; 1000; 1000; 1000; 100; 1000; 1000; 1000 ];
  let tenths = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p10 of 1..10" 1.0 (Common.quantile 0.1 tenths);
  Alcotest.(check (float 1e-9)) "p50 of 1..10" 5.0 (Common.quantile 0.5 tenths);
  Alcotest.(check (float 1e-9)) "p90 of 1..10" 9.0 (Common.quantile 0.9 tenths);
  Alcotest.(check (float 1e-6)) "fast tenth of the slice rates" 1e8 (Common.rate_fast r)

let test_best () =
  (* three units over three passes; a slow stretch hits a different
     unit in each pass, and every unit keeps its fastest time *)
  let b = Common.best 3 in
  List.iteri
    (fun i ns -> Common.best_add b (i mod 3) ns)
    [ 900; 2000; 3000; 1000; 4000; 3100; 1100; 2100; 9000 ];
  Alcotest.(check (list int)) "fastest per unit" [ 900; 2000; 3000 ] (Array.to_list b.Common.times);
  Alcotest.(check int) "fastest pass" 5900 (Common.best_total b);
  Alcotest.(check (float 1e-9)) "median unit, us" 2.0 (Common.best_median_us b);
  Alcotest.(check int) "samples" 9 b.Common.samples

(* BENCHMARK.json declares exactly the metrics the catalog reports. *)
let test_declared () =
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let declared =
    String.split_on_char '\n' json
    |> List.filter_map (fun line ->
           match String.index_opt line '{' with
           | None -> None
           | Some i -> (
             try
               Scanf.sscanf (String.sub line i (String.length line - i))
                 "{\"name\": %S, \"unit\": %S, \"better\": %S" (fun n u _ -> Some (n, u))
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> None))
  in
  let expected =
    List.map (fun (n, u, _) -> (n, u)) Catalog.end_to_end @ Catalog.per_layer
  in
  Alcotest.(check (list (pair string string))) "names and units" expected declared

(* A tiny run of each workload: every end-to-end metric with its
   unit, every traced layer metric known, and no mismatch. *)
let mpsgen () =
  let p = Sys.getenv "PERFBENCH_MPSGEN" in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let smoke workload run ~trace () =
  let work = Printf.sprintf "smoke-%s-%b" workload trace in
  Proc.remove_tree work;
  Proc.mkdir_p work;
  let cfg =
    {
      Common.seed = 7;
      seconds = 0.3;
      trace;
      mpsgen = mpsgen ();
      work;
      cache = work;
      circuit = "circ01";
      budget = Mps_experiments.Experiments.Quick;
      setup_reps = 2;
      min_passes = 1;
      pass_units = 2;
      sizing_iterations = 4;
    }
  in
  let o = Fun.protect ~finally:(fun () -> Proc.remove_tree work) (fun () -> run cfg) in
  Alcotest.(check int) "mismatches" 0 o.Common.mismatches;
  Alcotest.(check bool) "attempted" true (o.Common.attempted > 0);
  Alcotest.(check int) "failed" 0 o.Common.failed;
  Alcotest.(check bool) "children reaped" true (Proc.none_alive ());
  if trace then begin
    Alcotest.(check bool) "layer metrics" true (o.Common.layers <> []);
    List.iter
      (fun x ->
        match List.assoc_opt x.Common.name Catalog.per_layer with
        | Some u -> Alcotest.(check string) x.Common.name u x.Common.unit_
        | None -> Alcotest.failf "%s is not in the per-layer catalog" x.Common.name)
      o.Common.layers
  end
  else
    List.iter
      (fun (name, unit_, _) ->
        match List.find_opt (fun x -> x.Common.name = name) o.Common.e2e with
        | None -> Alcotest.failf "%s missing" name
        | Some x ->
          Alcotest.(check string) (name ^ " unit") unit_ x.Common.unit_;
          if not (Float.is_finite x.Common.value && x.Common.value > 0.0) then
            Alcotest.failf "%s = %g" name x.Common.value)
      Catalog.end_to_end

let workloads =
  [
    ("walk-unix", Walk_unix.run);
    ("probe-shm", Probe_shm.run);
    ("generate", Generate.run);
    ("sizing-routed", Sizing_routed.run);
  ]

let () =
  Alcotest.run "perfbench"
    [
      ( "hist",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "highest percentile with ten above" `Quick test_tail;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "slice medians" `Quick test_slices;
          Alcotest.test_case "slice rates" `Quick test_rate;
          Alcotest.test_case "fastest of passes" `Quick test_best;
        ] );
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_declared ]);
      ( "trace",
        [
          Alcotest.test_case "self time subtracts children" `Quick test_self_time;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled;
        ] );
      ( "smoke",
        List.concat_map
          (fun (name, run) ->
            [
              Alcotest.test_case (name ^ " untraced") `Quick (smoke name run ~trace:false);
              Alcotest.test_case (name ^ " traced") `Quick (smoke name run ~trace:true);
            ])
          workloads );
    ]
