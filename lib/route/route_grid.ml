open Mps_geometry

(* Cell (c, r) is index [r * cols + c] of both flat buffers. The
   buffers may be longer than [cols * rows] (see [create_in]); only the
   first [cols * rows] entries belong to the grid. *)
type t = {
  cols : int;
  rows : int;
  cell : int;
  cap : int;
  blocked : Bytes.t;  (** ['\001'] = blocked *)
  used : int array;
}

let shape ~die_w ~die_h ~cell =
  if cell <= 0 then invalid_arg "Route_grid.create: non-positive cell size";
  if die_w <= 0 || die_h <= 0 then invalid_arg "Route_grid.create: non-positive die";
  ((die_w + cell - 1) / cell, (die_h + cell - 1) / cell)

(* floor division, for rectangles that start left of or below the die *)
let fdiv a b = if a >= 0 then a / b else -((b - 1 - a) / b)

let create_in ~blocked ~used ~die_w ~die_h ~cell ~capacity rects =
  let cols, rows = shape ~die_w ~die_h ~cell in
  if capacity <= 0 then invalid_arg "Route_grid.create: non-positive capacity";
  let n = cols * rows in
  if Bytes.length blocked < n || Array.length used < n then
    invalid_arg "Route_grid.create_in: buffers shorter than the grid";
  Bytes.fill blocked 0 n '\000';
  Array.fill used 0 n 0;
  (* block cells whose center lies strictly inside a rectangle; only the
     rectangle's cell range, one cell of margin each side, can qualify *)
  let fcell = float_of_int cell in
  Array.iter
    (fun rect ->
      let x0 = float_of_int rect.Rect.x and x1 = float_of_int (Rect.right rect) in
      let y0 = float_of_int rect.Rect.y and y1 = float_of_int (Rect.top rect) in
      let c_lo = max 0 (fdiv rect.Rect.x cell - 1)
      and c_hi = min (cols - 1) (fdiv (Rect.right rect) cell + 1) in
      let r_lo = max 0 (fdiv rect.Rect.y cell - 1)
      and r_hi = min (rows - 1) (fdiv (Rect.top rect) cell + 1) in
      for r = r_lo to r_hi do
        let cy = (float_of_int r +. 0.5) *. fcell in
        if cy > y0 && cy < y1 then
          for c = c_lo to c_hi do
            let cx = (float_of_int c +. 0.5) *. fcell in
            if cx > x0 && cx < x1 then Bytes.unsafe_set blocked ((r * cols) + c) '\001'
          done
      done)
    rects;
  { cols; rows; cell; cap = capacity; blocked; used }

let create ~die_w ~die_h ~cell ~capacity rects =
  let cols, rows = shape ~die_w ~die_h ~cell in
  create_in ~blocked:(Bytes.create (cols * rows)) ~used:(Array.make (cols * rows) 0) ~die_w
    ~die_h ~cell ~capacity rects

let cols t = t.cols
let rows t = t.rows

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_of_point t ~x ~y =
  let c = clamp (int_of_float (x /. float_of_int t.cell)) 0 (t.cols - 1) in
  let r = clamp (int_of_float (y /. float_of_int t.cell)) 0 (t.rows - 1) in
  (c, r)

let center_of_cell t (c, r) =
  ( (float_of_int c +. 0.5) *. float_of_int t.cell,
    (float_of_int r +. 0.5) *. float_of_int t.cell )

let in_grid t (c, r) = c >= 0 && c < t.cols && r >= 0 && r < t.rows

let index t what (c, r) =
  if not (in_grid t (c, r)) then invalid_arg ("Route_grid." ^ what ^ ": outside grid");
  (r * t.cols) + c

let blocked t cell = Bytes.get t.blocked (index t "blocked" cell) <> '\000'
let unblock t cell = Bytes.set t.blocked (index t "unblock" cell) '\000'
let usage t cell = t.used.(index t "usage" cell)

let occupy t cell =
  let i = index t "occupy" cell in
  t.used.(i) <- t.used.(i) + 1

let capacity t = t.cap

let overflow t =
  let acc = ref 0 in
  for i = 0 to (t.cols * t.rows) - 1 do
    if t.used.(i) > t.cap then acc := !acc + (t.used.(i) - t.cap)
  done;
  !acc

let neighbors t (c, r) =
  List.filter
    (fun cell -> in_grid t cell && not (blocked t cell))
    [ (c - 1, r); (c + 1, r); (c, r - 1); (c, r + 1) ]
