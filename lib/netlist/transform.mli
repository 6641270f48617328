(** Structural netlist transformations.

    {!decompose_gates} and {!strip_buffers} are semantics-preserving
    rewrites (checked by property tests): the transformed circuit
    computes the same Boolean function on every net that survives, which
    also pins down the probabilistic analyses — signal probabilities are
    invariant, and unit-delay arrival times scale with the structural
    depth in a predictable way.  {!resize_gate} and {!retype_gate} are
    instead ECO edits: in-place mutations whose dirty net set feeds the
    incremental analyzers. *)

val decompose_gates : Circuit.t -> Circuit.t
(** Rewrite every gate with more than two inputs into a balanced tree
    of two-input gates of the base
    associative kind, with the inversion (for NAND/NOR/XNOR) applied at
    the root.  Net names of original gates are preserved; helper nets get
    fresh names. *)

val strip_buffers : Circuit.t -> Circuit.t
(** Remove BUF gates by reconnecting their fanout to their input.
    Buffers that drive primary outputs or flip-flops are kept (the name
    is part of the interface). *)

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
