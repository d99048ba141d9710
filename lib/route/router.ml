open Mps_netlist

type config = {
  cell : int;
  capacity : int;
  congestion_penalty : int;
  over_block_penalty : int;
}

let default_config =
  { cell = 4; capacity = 4; congestion_penalty = 2; over_block_penalty = 8 }

type routed_net = {
  net_id : int;
  cells : (int * int) list;
  length : float;
  routed : bool;
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;
  failed_nets : int;
}

(* Per-domain scratch, grown on demand and reused by every route on the
   domain, so the per-cell buffers of a large grid are not reallocated
   (and promoted to the major heap) per call.  Between waves every
   [dist] is [max_int], every [parent] is -1 and every [mask] byte is
   zero; [clean] is false while a route is running, so a route that
   raised mid-way leaves the next one to restore those invariants.
   [blocked] and [used] hold the grid itself (see [Route_grid.create_in]).
   The search indexes cells column-major, [id = c * rows + r], while
   the grid is row-major. *)
type scratch = {
  mutable blocked : Bytes.t;
  mutable used : int array;
  mutable dist : int array;
  mutable parent : int array;
  mutable touched : int array;  (** ids whose [dist] this wave set *)
  mutable mask : Bytes.t;  (** ids in the current net's tree *)
  mutable heap : int array;  (** binary min-heap of packed keys *)
  mutable clean : bool;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        blocked = Bytes.empty;
        used = [||];
        dist = [||];
        parent = [||];
        touched = [||];
        mask = Bytes.empty;
        heap = [||];
        clean = true;
      })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dist < n then begin
    s.blocked <- Bytes.create n;
    s.used <- Array.make n 0;
    s.dist <- Array.make n max_int;
    s.parent <- Array.make n (-1);
    s.touched <- Array.make n 0;
    s.mask <- Bytes.make n '\000';
    s.heap <- Array.make n 0;
    s.clean <- true
  end
  else if not s.clean then begin
    Array.fill s.dist 0 (Array.length s.dist) max_int;
    Array.fill s.parent 0 (Array.length s.parent) (-1);
    Bytes.fill s.mask 0 (Bytes.length s.mask) '\000';
    s.clean <- true
  end;
  s

(* Dijkstra from a set of source cells to one target cell; entering a
   cell costs 1, plus [congestion_penalty] per wire already crossing
   it, plus [over_block_penalty] when it is blocked.  A heap key packs
   [(dist, col, row)] as [dist * n + id], so keys pop in that
   lexicographic order and no two are equal.  Returns the path of ids
   from a source to the target (inclusive), or [] when the target is
   unreachable. *)
let wave s config ~cols ~rows ~sources ~target =
  let n = cols * rows in
  let dist = s.dist and parent = s.parent and touched = s.touched in
  let used = s.used and blocked = s.blocked in
  let n_touched = ref 0 in
  let len = ref 0 in
  let push key =
    if !len = Array.length s.heap then begin
      let bigger = Array.make (max 16 (2 * !len)) 0 in
      Array.blit s.heap 0 bigger 0 !len;
      s.heap <- bigger
    end;
    let heap = s.heap in
    let i = ref !len in
    incr len;
    while !i > 0 && heap.((!i - 1) / 2) > key do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- key
  in
  let pop () =
    let heap = s.heap in
    let top = heap.(0) in
    decr len;
    let last = heap.(!len) in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= !len then settled := true
      else begin
        let m = if l + 1 < !len && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(m) < last then begin
          heap.(!i) <- heap.(m);
          i := m
        end
        else settled := true
      end
    done;
    if !len > 0 then heap.(!i) <- last;
    top
  in
  let set_dist id d =
    if dist.(id) = max_int then begin
      touched.(!n_touched) <- id;
      incr n_touched
    end;
    dist.(id) <- d
  in
  let relax d from c r id =
    let g = (r * cols) + c in
    let nd =
      d + 1
      + (config.congestion_penalty * used.(g))
      + if Bytes.get blocked g <> '\000' then config.over_block_penalty else 0
    in
    if nd < dist.(id) then begin
      set_dist id nd;
      parent.(id) <- from;
      push ((nd * n) + id)
    end
  in
  List.iter
    (fun id ->
      if dist.(id) > 0 then begin
        set_dist id 0;
        push id
      end)
    sources;
  let found = ref false in
  while (not !found) && !len > 0 do
    let key = pop () in
    let d = key / n and id = key mod n in
    if id = target then found := true
    else if d <= dist.(id) then begin
      let c = id / rows and r = id mod rows in
      if c > 0 then relax d id (c - 1) r (id - rows);
      if c < cols - 1 then relax d id (c + 1) r (id + rows);
      if r > 0 then relax d id c (r - 1) (id - 1);
      if r < rows - 1 then relax d id c (r + 1) (id + 1)
    end
  done;
  let rec back acc id = if id < 0 then acc else back (id :: acc) parent.(id) in
  let path = if !found then back [] target else [] in
  for i = 0 to !n_touched - 1 do
    let id = touched.(i) in
    dist.(id) <- max_int;
    parent.(id) <- -1
  done;
  path

let route ?(config = default_config) circuit ~die_w ~die_h rects =
  if Array.length rects <> Circuit.n_blocks circuit then
    invalid_arg "Router.route: one rectangle per block required";
  let cols, rows = Route_grid.shape ~die_w ~die_h ~cell:config.cell in
  let s = scratch (cols * rows) in
  let grid =
    Route_grid.create_in ~blocked:s.blocked ~used:s.used ~die_w ~die_h ~cell:config.cell
      ~capacity:config.capacity rects
  in
  s.clean <- false;
  let id_of (c, r) = (c * rows) + r and cell_of id = (id / rows, id mod rows) in
  let in_tree id = Bytes.get s.mask id <> '\000' in
  let pin_cell pin =
    let x, y = Mps_cost.Wirelength.pin_position pin ~rects ~die_w ~die_h in
    let cell = Route_grid.cell_of_point grid ~x ~y in
    Route_grid.unblock grid cell;
    cell
  in
  (* nets with more pins first: they need the most freedom *)
  let order =
    List.sort
      (fun a b -> Int.compare (Net.degree b) (Net.degree a))
      (Array.to_list circuit.Circuit.nets)
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun net ->
      let pins = List.map pin_cell net.Net.pins in
      let pins = List.sort_uniq compare pins in
      match pins with
      | [] | [ _ ] ->
        Hashtbl.replace results net.Net.id
          { net_id = net.Net.id; cells = pins; length = 0.0; routed = true }
      | first :: rest ->
        (* the tree as ids, newest first, mirrored in [s.mask] *)
        let tree = ref [] in
        let add id =
          if not (in_tree id) then begin
            Bytes.set s.mask id '\001';
            tree := id :: !tree
          end
        in
        add (id_of first);
        let complete = ref true in
        List.iter
          (fun pin ->
            let target = id_of pin in
            if not (in_tree target) then
              match wave s config ~cols ~rows ~sources:!tree ~target with
              | [] -> complete := false
              | path -> List.iter add path)
          rest;
        List.iter (fun id -> Bytes.set s.mask id '\000') !tree;
        let cells = List.map cell_of !tree in
        if !complete then begin
          List.iter (Route_grid.occupy grid) cells;
          let length = float_of_int ((List.length cells - 1) * config.cell) in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells; length; routed = true }
        end
        else begin
          (* unroutable through free cells: half-perimeter fallback *)
          let length = Mps_cost.Wirelength.net_hpwl net ~rects ~die_w ~die_h in
          Hashtbl.replace results net.Net.id
            { net_id = net.Net.id; cells; length; routed = false }
        end)
    order;
  let overflow = Route_grid.overflow grid in
  s.clean <- true;
  let nets =
    Array.map
      (fun net -> Hashtbl.find results net.Net.id)
      circuit.Circuit.nets
  in
  {
    nets;
    total_length = Array.fold_left (fun acc n -> acc +. n.length) 0.0 nets;
    overflow;
    failed_nets =
      Array.fold_left (fun acc n -> if n.routed then acc else acc + 1) 0 nets;
  }

let wire_points ?(config = default_config) t =
  let center (c, r) =
    let f v = (float_of_int v +. 0.5) *. float_of_int config.cell in
    (f c, f r)
  in
  Array.to_list t.nets |> List.concat_map (fun net -> List.map center net.cells)

let routed_length t id =
  match Array.find_opt (fun n -> n.net_id = id) t.nets with
  | Some n -> n.length
  | None -> invalid_arg "Router.routed_length: unknown net"
