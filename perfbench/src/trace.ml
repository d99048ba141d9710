(* Spans around the benchmark's calls into each layer.

   A span has a kind (its name), a start and an end on the benchmark's
   clock, a parent (the span open when it began) and an id shared by
   every span of one step or request.  Spans nest: a child closes
   before its parent, so a span's self time is its duration minus the
   durations of its direct children, accumulated as they close.

   Per-kind aggregates (a duration histogram and the summed self time)
   are exact for every span; the raw spans are kept in memory up to a
   fixed capacity and written out when the run ends.  A disabled
   tracer records nothing, so untraced runs pay one branch per call. *)

type kind = int

type stat = { durations : Hist.t; mutable self_ns : int }

let max_depth = 16

(* Spans kept for the trace file, and duration samples kept per kind;
   spans past either still count in the aggregates. *)
let span_capacity = 100_000
let hist_capacity = 1 lsl 22

type t = {
  enabled : bool;
  clock : unit -> int;
  mutable kinds : string array;
  mutable stats : stat array;
  (* open spans, innermost last *)
  mutable depth : int;
  f_kind : int array;
  f_start : int array;
  f_child : int array;
  f_slot : int array;
  (* stored spans *)
  capacity : int;
  mutable stored : int;
  mutable dropped : int;
  s_kind : int array;
  s_id : int array;
  s_parent : int array;
  s_start : int array;
  s_stop : int array;
}

let create ?(clock = Clock.now_ns) ~enabled () =
  let capacity = if enabled then span_capacity else 0 in
  {
    enabled;
    clock;
    kinds = [||];
    stats = [||];
    depth = 0;
    f_kind = Array.make max_depth 0;
    f_start = Array.make max_depth 0;
    f_child = Array.make max_depth 0;
    f_slot = Array.make max_depth 0;
    capacity;
    stored = 0;
    dropped = 0;
    s_kind = Array.make capacity 0;
    s_id = Array.make capacity 0;
    s_parent = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_stop = Array.make capacity 0;
  }

let disabled = create ~enabled:false ()

let kind t name =
  let rec find i =
    if i >= Array.length t.kinds then begin
      t.kinds <- Array.append t.kinds [| name |];
      t.stats <-
        Array.append t.stats
          [| { durations = Hist.create (if t.enabled then hist_capacity else 1); self_ns = 0 } |];
      i
    end
    else if t.kinds.(i) = name then i
    else find (i + 1)
  in
  find 0

let enter t k ~id =
  if t.enabled then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Trace.enter: spans nested too deep";
    let start = t.clock () in
    let slot =
      if t.stored < t.capacity then begin
        let s = t.stored in
        t.stored <- s + 1;
        t.s_kind.(s) <- k;
        t.s_id.(s) <- id;
        t.s_parent.(s) <- (if d = 0 then -1 else t.f_slot.(d - 1));
        t.s_start.(s) <- start;
        s
      end
      else begin
        t.dropped <- t.dropped + 1;
        -1
      end
    in
    t.f_kind.(d) <- k;
    t.f_start.(d) <- start;
    t.f_child.(d) <- 0;
    t.f_slot.(d) <- slot;
    t.depth <- d + 1
  end

let leave t =
  if t.enabled then begin
    if t.depth = 0 then invalid_arg "Trace.leave: no open span";
    let stop = t.clock () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = stop - t.f_start.(d) in
    let st = t.stats.(t.f_kind.(d)) in
    Hist.add st.durations dur;
    st.self_ns <- st.self_ns + (dur - t.f_child.(d));
    if d > 0 then t.f_child.(d - 1) <- t.f_child.(d - 1) + dur;
    let slot = t.f_slot.(d) in
    if slot >= 0 then t.s_stop.(slot) <- stop
  end

(* Aggregates by span name; kinds never entered report zeros. *)
let durations t name =
  match Array.find_index (String.equal name) t.kinds with
  | Some i -> t.stats.(i).durations
  | None -> Hist.create 1

let self_ns t name =
  match Array.find_index (String.equal name) t.kinds with
  | Some i -> t.stats.(i).self_ns
  | None -> 0

let total_ns t name = Hist.total (durations t name)
let spans t = t.stored + t.dropped
let dropped t = t.dropped

(* One line per stored span: id, name, start, stop, parent index. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "index\tid\tname\tstart_ns\tstop_ns\tparent\n";
      for s = 0 to t.stored - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\n" s t.s_id.(s) t.kinds.(t.s_kind.(s))
          t.s_start.(s) t.s_stop.(s) t.s_parent.(s)
      done)
