(* perfbench: the Fig. 1b placement loop, end to end and by layer.

   perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints, in this order: a table of every
   metric with its unit and direction, one JSON line stamping the run
   (host, toolchain, commit, seed, sample counts, oracle checks), and
   last one JSON line with the result.  Untraced runs report the
   end-to-end metrics, traced runs the per-layer ones.  Exits 1 when a
   served answer differs from the oracle. *)

open Perfbench
open Common

let workloads =
  [
    ("walk-unix", Walk_unix.run);
    ("probe-shm", Probe_shm.run);
    ("generate", Generate.run);
    ("sizing-routed", Sizing_routed.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --mpsgen PATH --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit ID]";
  exit 2

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* What was built: a digest of the sources, which stands in for the
   commit where the checkout is not a git repository. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.sort compare names;
      List.concat_map
        (fun n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then files p
          else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
                  || n = "dune" then [ p ]
          else [])
        (Array.to_list names)
  in
  let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file all)))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let seed = int_opt "seed" in
  let seconds = int_opt "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let commit = Option.value (List.assoc_opt "commit" opts) ~default:"unknown" in
  if seconds < 1 then usage ();
  let root = ".perfbench" in
  let work = Filename.concat root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Proc.mkdir_p work;
  Proc.install ~on_exit:(fun () -> Proc.remove_tree work);
  let host_cores = Domain.recommended_domain_count () in
  let digest = source_digest () in
  let cfg =
    {
      seed;
      seconds = float_of_int seconds;
      trace;
      mpsgen = get "mpsgen";
      work;
      cache = Filename.concat root ("cache-" ^ digest);
      circuit = "benchmark24";
      budget = Mps_experiments.Experiments.Full;
      setup_reps = 5;
      min_passes = 2;
      pass_units = 1;
      sizing_iterations = 25;
    }
  in
  (* A full-budget benchmark24 generation takes seconds here, and its
     time swings up to 2x between runs; quick-budget generations are
     short enough that a run reads a steady figure from many. *)
  let cfg =
    match workload with
    | "walk-unix" -> { cfg with setup_reps = 11 }
    | "probe-shm" -> { cfg with setup_reps = 11; pass_units = 512 }
    | "generate" -> { cfg with budget = Quick; setup_reps = 9; min_passes = 5 }
    | "sizing-routed" -> { cfg with pass_units = 16 }
    | _ -> cfg
  in
  let o = run cfg in
  Proc.terminate_all ();
  if not (Proc.none_alive ()) then failwith "a child process outlived the run";
  let check =
    [
      Common.m "check.mismatch_count" "count" (f o.mismatches);
      Common.m "check.failed_share" "ratio" (share o.failed o.attempted);
    ]
  in
  let metrics =
    if trace then begin
      let reported = o.layers @ check in
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.name = name) reported with
          | Some x -> x
          | None -> Common.m name unit_ 0.0)
        Catalog.per_layer
    end
    else
      List.map
        (fun (name, _, _) ->
          match List.find_opt (fun x -> x.name = name) o.e2e with
          | Some x -> x
          | None -> failwith ("workload did not report " ^ name))
        Catalog.end_to_end
  in
  (* the table: every metric by name, with unit and direction; the
     unbounded end-to-end metrics follow the JSON ones *)
  let table =
    if trace then metrics
    else metrics @ List.filter (fun x -> List.exists (fun (n, _, _) -> n = x.name) Catalog.unbounded) o.e2e
  in
  Printf.printf "perfbench %s seed %d (%s run, %d s)\n" workload seed
    (if trace then "traced" else "untraced") seconds;
  List.iter
    (fun x ->
      let better, alias =
        match
          List.find_opt (fun (n, _, _) -> n = x.name) (Catalog.end_to_end @ Catalog.unbounded)
        with
        | Some (_, _, d) -> (Catalog.direction_to_string d, Catalog.named workload x.name)
        | None -> ("", x.name)
      in
      Printf.printf "  %-28s %16.6g %-6s %-7s %s\n" x.name x.value x.unit_ better
        (if alias <> x.name then "(" ^ alias ^ ")" else ""))
    table;
  Printf.printf "  %-28s %16d %-6s %-7s\n" "mismatch_count" o.mismatches "count"
    (Catalog.direction_to_string Catalog.Zero);
  Printf.printf "  %-28s %16.6g %-6s %-7s (%d failed of %d attempted)\n" "failed_share"
    (share o.failed o.attempted) "ratio" "lower" o.failed o.attempted;
  if trace then begin
    (match List.find_opt (fun x -> x.name = "check.attribution_share") metrics with
    | Some x when x.value > 0.0 ->
      Printf.printf "  layer times account for the timed wall within 10%%: %s\n"
        (if Float.abs (x.value -. 1.0) <= 0.1 then "yes" else "NO")
    | _ -> ());
    let dir = Filename.concat root "traces" in
    Proc.mkdir_p dir;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload seed) in
    Trace.write o.trace path;
    Printf.printf "  spans written to %s (%d kept, %d over capacity)\n" path
      (Trace.spans o.trace - Trace.dropped o.trace)
      (Trace.dropped o.trace)
  end;
  let stamp =
    json_object
      [
        ("workload", json_string workload);
        ("seed", string_of_int seed);
        ("seconds", string_of_int seconds);
        ("trace", string_of_bool trace);
        ("host_cores", string_of_int host_cores);
        ("ocaml", json_string Sys.ocaml_version);
        ("commit", json_string commit);
        ("source_digest", json_string digest);
        ("checked", string_of_int o.checked);
        ("mismatch_count", string_of_int o.mismatches);
        ("attempted", string_of_int o.attempted);
        ("failed", string_of_int o.failed);
        ("samples", json_object (List.map (fun (k, v) -> (k, json_string v)) o.notes));
      ]
  in
  print_endline (json_object [ ("stamp", stamp) ]);
  let correct = o.mismatches = 0 && o.attempted > 0 in
  print_endline
    (json_object
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int o.failed);
         ( "metrics",
           json_object
             (List.map
                (fun x ->
                  ( x.name,
                    json_object
                      [ ("value", json_number x.value); ("unit", json_string x.unit_) ] ))
                metrics) );
       ]);
  if not correct then exit 1
