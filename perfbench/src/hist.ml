(* Exact latency samples in a fixed-capacity buffer, with nearest-rank
   percentiles.  The buffer is a bigarray so that pages are only made
   resident as samples arrive: a run's RSS grows with the samples it
   takes, not with the capacity it reserved. *)

type t = {
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable n : int;
  mutable total : int;
  mutable sorted : bool;
}

let create capacity =
  {
    data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 capacity);
    n = 0;
    total = 0;
    sorted = true;
  }

let capacity t = Bigarray.Array1.dim t.data
let count t = t.n
let total t = t.total

(* Samples past the capacity still count towards [total]. *)
let add t v =
  t.total <- t.total + v;
  if t.n < capacity t then begin
    Bigarray.Array1.unsafe_set t.data t.n v;
    t.n <- t.n + 1;
    t.sorted <- false
  end

(* The samples in arrival order, unless a percentile has been read. *)
let to_array t = Array.init t.n (Bigarray.Array1.get t.data)

let of_array a =
  let t = create (Array.length a) in
  Array.iter (add t) a;
  t

let sort t =
  if not t.sorted then begin
    let a = Array.init t.n (Bigarray.Array1.get t.data) in
    Array.sort compare a;
    Array.iteri (Bigarray.Array1.set t.data) a;
    t.sorted <- true
  end

(* Nearest rank: the smallest sample with at least [permille]/1000 of
   the samples at or below it.  Integer arithmetic, so the rank of
   p99 over 1000 samples is exactly 990. *)
let rank ~n permille = max 1 (((permille * n) + 999) / 1000)

let percentile t permille =
  if t.n = 0 then 0
  else begin
    sort t;
    Bigarray.Array1.get t.data (rank ~n:t.n permille - 1)
  end

let median t = percentile t 500

(* The highest percentile, at most p99, that leaves at least ten
   samples above it; [None] when there are fewer than eleven. *)
let tail_permille n =
  if n < 11 then None else Some (min 990 ((n - 10) * 1000 / n))

let beyond ~n permille = n - rank ~n permille
