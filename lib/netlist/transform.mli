(** Netlist edits and counters.

    {!resize_gate} and {!retype_gate} are ECO edits: in-place mutations
    whose dirty net set feeds the incremental analyzers.  {!statistics}
    reports structural counters. *)

val resize_gate :
  Sized_library.t -> Circuit.t -> Sized_library.assignment -> Circuit.id -> size:int ->
  Circuit.id list
(** Swap the cell driving this net for the [size]-indexed variant of its
    size group, in place, and return the dirty net set to hand to the
    incremental analyzers ([Ssta.update] / [Propagate.update]).  The
    delay model is load-independent, so only the gate's own output net is
    dirtied; returns [[]] when the gate already has that size.  Raises
    [Invalid_argument] if the net is not gate-driven or [size] is outside
    the family. *)

val retype_gate :
  Circuit.t -> Circuit.id -> kind:Spsta_logic.Gate_kind.t -> Circuit.id list
(** Swap the logical function of the gate driving this net, in place
    ({!Circuit.retype_gate}), and return the dirty net set for the
    incremental analyzers; returns [[]] when the gate already has that
    kind.  An ECO edit, {e not} semantics-preserving.  Raises
    [Invalid_argument] if the net is not gate-driven or the fan-in
    violates the new kind's arity bounds. *)

val statistics : Circuit.t -> (string * int) list
(** Named structural counters (nets, gates per kind, fanout max, ...)
    for reports. *)
