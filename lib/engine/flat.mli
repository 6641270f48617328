(** Flat struct-of-arrays kernels for the SSTA-shaped propagation
    domains.

    The record engine ({!Propagate.Make}) allocates an operand array
    plus several state records per gate; at a million gates that churn
    dominates the sweep and serializes the parallel domains on GC.
    These kernels keep per-net state in preallocated [floatarray]s (one
    slot per net id per moment component), walk the gates through the
    circuit's cached CSR view ({!Spsta_netlist.Circuit.csr}), and fold
    the Clark/min/max arithmetic through caller-owned all-float buffers
    ({!Spsta_dist.Clark.mv}, {!rf_buf}) — the inner loop performs no
    allocation at all.

    Scheduling (sequential sweep, levelized-parallel sweep over the
    persistent {!Spsta_util.Parallel} pool with narrow-level fusion,
    dirty-cone incremental update via {!Propagate.dirty_cone}) mirrors
    the record engine exactly, and every fold replays the record
    engine's operation order — results are bit-identical (IEEE-exact)
    to the record engine at every domain count.  The analyzers
    ({!Spsta_ssta.Ssta}, {!Spsta_ssta.Sta}) route through these kernels
    by default and materialize records only at their API boundary. *)

type rf_buf = {
  mutable rise_mu : float;
  mutable rise_sig : float;
  mutable fall_mu : float;
  mutable fall_sig : float;
}
(** Per-direction normal moments travelling between an analyzer's
    closures (source seeds, per-gate delays) and the kernel: an
    all-float mutable record, so writes and reads never allocate. *)

val rf_buf : unit -> rf_buf
(** A zeroed buffer. *)

(** A flat kernel: per-net state in preallocated arrays, one gate
    evaluated at a time by CSR index.  {!Sweep} supplies the scheduling
    every flat kernel shares. *)
module type KERNEL = sig
  type t
  (** The kernel's state and configuration for one sweep. *)

  type scratch
  (** Per-worker buffers, never shared across domains: {!Sweep} makes
      one per sequential run and one per parallel chunk. *)

  val circuit : t -> Spsta_netlist.Circuit.t
  val scratch : t -> scratch

  val seed : t -> scratch -> Spsta_netlist.Circuit.id -> unit
  (** Write a source net's state. *)

  val eval : t -> scratch -> int -> unit
  (** Evaluate the gate at CSR index [k] (= its topo position), reading
      its operands' state and writing only its own net's.  Gates within
      one level never read each other, so this is what keeps the
      parallel schedule bit-identical to the sequential one. *)
end

(** The scheduling of {!Propagate.Make}, re-expressed over CSR gate
    ranges: sequential sweep, levelized-parallel sweep over the
    persistent {!Spsta_util.Parallel} pool (same chunking, narrow-level
    fusion and [max 16 (2 * domains)] cutoff), and dirty-cone update. *)
module Sweep (K : KERNEL) : sig
  val run : domains:int -> instrument:(Propagate.level_stat -> unit) option -> K.t -> unit
  (** Seed every source, then evaluate every gate.  [domains] must
      already be validated ({!Spsta_util.Parallel.check_domains}).
      Raises [Invalid_argument] on a circuit with nets but no sources. *)

  val update : K.t -> changed:Spsta_netlist.Circuit.id list -> unit
  (** Re-seed the changed sources and re-evaluate the combinational
      fanout cones of [changed] ({!Propagate.dirty_cone}) in sequential
      order, in place. *)
end

(** Min/max-separated SSTA: one normal arrival per transition direction
    per net, Clark MAX/MIN folds per gate (the {!Spsta_ssta.Ssta}
    domain). *)
module Ssta : sig
  type check = float -> float -> float -> float -> (string * string) option
  (** [check rise_mu rise_sigma fall_mu fall_sigma] verifies one net's
      slots, returning [Some (rule, message)] on a violation — the
      float-level twin of {!Propagate.Sanitize.check}.  Violations are
      raised as {!Propagate.Sanitize.Violation} naming the net.  Must be
      pure: it runs inside the (possibly parallel) sweep. *)

  type state
  (** Arrival moments for every net, in four flat float arrays. *)

  val run :
    source:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    ?check:check ->
    ?domains:int ->
    ?instrument:(Propagate.level_stat -> unit) ->
    Spsta_netlist.Circuit.t ->
    state
  (** Full sweep.  [source] fills the buffer with a source net's arrival
      moments; [delay] fills it with a gate's (rise, fall) delay moments
      and is called exactly once per evaluated gate.  [domains],
      [instrument] and the scheduling cutoffs behave exactly as in
      {!Propagate.Make.run}. *)

  val update :
    source:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> rf_buf -> unit) ->
    ?check:check ->
    state ->
    changed:Spsta_netlist.Circuit.id list ->
    state
  (** Dirty-cone incremental re-propagation, {!Propagate.Make.update}
      semantics: re-seeds changed sources, re-evaluates exactly the
      combinational fanout cones in sequential order ([delay] is called
      once per dirty gate), shares slots outside the cones by copying
      the arrays.  The input state is not mutated. *)

  val circuit : state -> Spsta_netlist.Circuit.t
  val rise_mean : state -> Spsta_netlist.Circuit.id -> float
  val rise_sigma : state -> Spsta_netlist.Circuit.id -> float
  val fall_mean : state -> Spsta_netlist.Circuit.id -> float
  val fall_sigma : state -> Spsta_netlist.Circuit.id -> float
end

(** Corner STA: a deterministic [earliest, latest] window per net (the
    {!Spsta_ssta.Sta} domain). *)
module Sta : sig
  type buf = { mutable b_early : float; mutable b_late : float }

  val buf : unit -> buf

  type check = float -> float -> (string * string) option
  (** [check earliest latest] — see {!Ssta.check}. *)

  type state

  val run :
    source:(Spsta_netlist.Circuit.id -> buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> float) ->
    ?check:check ->
    ?domains:int ->
    ?instrument:(Propagate.level_stat -> unit) ->
    Spsta_netlist.Circuit.t ->
    state

  val update :
    source:(Spsta_netlist.Circuit.id -> buf -> unit) ->
    delay:(Spsta_netlist.Circuit.id -> float) ->
    ?check:check ->
    state ->
    changed:Spsta_netlist.Circuit.id list ->
    state

  val circuit : state -> Spsta_netlist.Circuit.t
  val earliest : state -> Spsta_netlist.Circuit.id -> float
  val latest : state -> Spsta_netlist.Circuit.id -> float
end
