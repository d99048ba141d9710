open Mps_geometry

(* Translate the packed floorplan back toward the origin so it fits the
   die when its bounding box allows (independently per axis). *)
let[@inline] shift_amount extent lo hi die =
  if extent <= die then max (-lo) (-(max 0 (hi - die))) else -lo

let fit_die_in_place ~die_w ~die_h out =
  let n = Array.length out in
  if n > 0 then begin
    let r0 = out.(0) in
    let min_x = ref r0.Rect.x and min_y = ref r0.Rect.y in
    let max_x = ref (Rect.right r0) and max_y = ref (Rect.top r0) in
    for i = 1 to n - 1 do
      let r = out.(i) in
      if r.Rect.x < !min_x then min_x := r.Rect.x;
      if r.Rect.y < !min_y then min_y := r.Rect.y;
      if Rect.right r > !max_x then max_x := Rect.right r;
      if Rect.top r > !max_y then max_y := Rect.top r
    done;
    let dx = shift_amount (!max_x - !min_x) !min_x !max_x die_w in
    let dy = shift_amount (!max_y - !min_y) !min_y !max_y die_h in
    if dx <> 0 || dy <> 0 then
      for i = 0 to n - 1 do
        let r = out.(i) in
        r.Rect.x <- r.Rect.x + dx;
        r.Rect.y <- r.Rect.y + dy
      done
  end

type scratch = { mutable sc_order : int array; mutable sc_placed : Bytes.t }

let scratch () = { sc_order = [||]; sc_placed = Bytes.empty }

(* The allocation-free kernel: instantiation runs in admission-test and
   template-averaging loops that re-pack hundreds of dimension samples
   per candidate, and in the query engine's fallback answers, so the
   visit order, the placed flags, and the output rectangles all live in
   caller-owned buffers refilled in place.  Blocks are visited by
   (x, y), ties by block index: an insertion sort over the identity
   permutation (stable, and closure-free unlike [Array.sort]). *)
let pack ~scratch ~out ~coords dims =
  let n = Array.length coords in
  if Dims.n_blocks dims <> n then
    invalid_arg "Repack.instantiate_into: block count mismatch";
  if Array.length out <> n then invalid_arg "Repack.instantiate_into: bad buffer length";
  if Array.length scratch.sc_order <> n then begin
    scratch.sc_order <- Array.make n 0;
    scratch.sc_placed <- Bytes.make n '\000'
  end;
  let order = scratch.sc_order in
  for oi = 0 to n - 1 do
    let xi, yi = coords.(oi) in
    let j = ref (oi - 1) in
    while
      !j >= 0
      &&
      let xj, yj = coords.(order.(!j)) in
      xj > xi || (xj = xi && yj > yi)
    do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- oi
  done;
  let placed = scratch.sc_placed in
  Bytes.fill placed 0 n '\000';
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    let x, y = coords.(i) in
    let w = Dims.width dims i and h = Dims.height dims i in
    (* slide upward to the first y where (x, y, w, h) clashes with no
       already-placed block.  On a clash with placed rect [r], every y
       below [r]'s top clashes with it too, so jump straight there and
       rescan: the first free y is the one a unit-step slide finds. *)
    let yy = ref y in
    let j = ref 0 in
    while !j < n do
      let r = Array.unsafe_get out !j in
      if Bytes.unsafe_get placed !j <> '\000'
         && x < r.Rect.x + r.Rect.w && r.Rect.x < x + w && !yy < r.Rect.y + r.Rect.h
         && r.Rect.y < !yy + h
      then begin
        yy := r.Rect.y + r.Rect.h;
        j := 0
      end
      else incr j
    done;
    Rect.set out.(i) ~x ~y:!yy ~w ~h;
    Bytes.set placed i '\001'
  done

let instantiate_into ~scratch ~out ~die_w ~die_h ~coords dims =
  pack ~scratch ~out ~coords dims;
  fit_die_in_place ~die_w ~die_h out

let instantiate ?die ~coords dims =
  let n = Array.length coords in
  if Dims.n_blocks dims <> n then invalid_arg "Repack.instantiate: block count mismatch";
  let out =
    Array.init n (fun i ->
        Rect.make ~x:0 ~y:0 ~w:(Dims.width dims i) ~h:(Dims.height dims i))
  in
  pack ~scratch:(scratch ()) ~out ~coords dims;
  (match die with None -> () | Some (die_w, die_h) -> fit_die_in_place ~die_w ~die_h out);
  out
