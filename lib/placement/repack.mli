(** Template-style greedy re-packing.

    Given reference block corners and new dimensions, blocks are visited
    in the reference left-to-right, bottom-to-top order and each one
    slides upward until it overlaps none of the already-packed blocks.
    Blocks with the same corner go in block-index order.
    This is how a fixed layout template absorbs size changes: the
    arrangement survives, optimality does not.  Used by the template
    baseline placer and by the multi-placement structure's fallback
    answer for uncovered dimension vectors. *)

open Mps_geometry

val instantiate : ?die:int * int -> coords:(int * int) array -> Dims.t -> Rect.t array
(** Overlap-free floorplan at exactly the requested dimensions.  With
    [?die:(die_w, die_h)] the packed floorplan is translated back
    toward the origin so it fits the die whenever its bounding box can
    (per axis); a bounding box larger than the die still sticks out —
    rigidity is the template's defining weakness.
    @raise Invalid_argument on block-count mismatch. *)

type scratch
(** Reusable working set for {!instantiate_into} (sort permutation and
    placed flags); sized lazily to the block count on first use and
    reused for free while the count is stable.  Not thread-safe — one
    per worker (see [Arena]). *)

val scratch : unit -> scratch

val instantiate_into :
  scratch:scratch ->
  out:Rect.t array ->
  die_w:int ->
  die_h:int ->
  coords:(int * int) array ->
  Dims.t ->
  unit
(** {!instantiate} [~die:(die_w, die_h)] into a caller buffer of exactly
    one rectangle per block, refilled in place: the allocation-free
    variant for the admission-test and template-averaging loops, which
    re-pack hundreds of sampled dimension vectors per candidate, and for
    the query engine's fallback answers.  It allocates nothing once the
    scratch is sized.  Results are identical to {!instantiate}.
    @raise Invalid_argument on a block-count or buffer-length
    mismatch. *)
