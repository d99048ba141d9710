(** Grid-based global router (Lee maze routing with sequential Steiner
    growth) — the "Routing" box of the paper's synthesis loop (Fig. 1b).

    Nets are routed one at a time in decreasing pin count; each net
    grows a Steiner tree by repeated Dijkstra searches from the
    already-routed tree to the next pin.  Entering a cell costs 1, plus
    [congestion_penalty] per wire already crossing it, plus
    [over_block_penalty] inside a block, so routes prefer open,
    uncongested channels.  A net whose pins cannot all be joined falls
    back to its half-perimeter estimate so downstream extraction always
    has a length for every net.

    {b Determinism.}  The search is a binary heap keyed on
    [(cost, col, row)], compared lexicographically; every key is
    distinct, so among equal-cost cells the one with the lower column,
    then the lower row, is expanded first, and a cell's parent is only
    replaced by a strictly cheaper one.  Routes are therefore a
    function of the circuit, the floorplan and the config alone — the
    same on every run, domain and host.  A domain reuses its search
    buffers from one call to the next; calls on different domains share
    nothing. *)

open Mps_geometry
open Mps_netlist

type config = {
  cell : int;  (** Routing grid pitch in layout grid units. *)
  capacity : int;  (** Wire crossings per cell before congestion. *)
  congestion_penalty : int;
      (** Extra search cost per crossing already in a cell (makes later
          nets detour around congestion). *)
  over_block_penalty : int;
      (** Extra cost for crossing a block interior (over-the-cell
          routing on upper metal): pins deep inside modules can escape,
          but open channels are strongly preferred. *)
}

val default_config : config
(** Cell 4, capacity 4, congestion penalty 2, over-block penalty 8. *)

(** Routing result for one net. *)
type routed_net = {
  net_id : int;
  cells : (int * int) list;  (** Tree cells, without duplicates. *)
  length : float;  (** Routed wirelength in layout grid units. *)
  routed : bool;
      (** [false]: no path existed (degenerate grid) and the length fell
          back to the HPWL estimate. *)
}

type t = {
  nets : routed_net array;
  total_length : float;
  overflow : int;  (** Congestion: cell crossings above capacity. *)
  failed_nets : int;
}

val route :
  ?config:config -> Circuit.t -> die_w:int -> die_h:int -> Rect.t array -> t
(** Route every net of the instantiated floorplan.
    @raise Invalid_argument on a block-count mismatch. *)

val wire_points : ?config:config -> t -> (float * float) list
(** Die coordinates of the center of every routed cell, net by net, for
    drawing the wires; [config] must be the one the routing used. *)

val routed_length : t -> int -> float
(** Length of one net by id. *)
