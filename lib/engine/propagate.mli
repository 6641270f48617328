(** The one levelized propagation engine behind every analyzer.

    Each timing analysis in the reproduction — SPSTA moment/grid
    propagation, min/max SSTA, corner STA, bounds-SSTA, canonical-form
    SSTA and interval/affine STA — is the same traversal: seed the
    sources, then fold each gate's operand states into its output state
    in topological order.  This module implements that traversal exactly
    once, functorized over the *propagation domain* (the per-net state
    and the per-gate transfer function), and gives every instantiation

    - the sequential topological sweep,
    - the levelized domain-parallel sweep ({!Spsta_netlist.Circuit.gates_by_level}
      + the persistent worker pool behind {!Spsta_util.Parallel.run_chunks}:
      wide levels are cut into chunks claimed through an atomic work
      index, runs of narrow levels are fused into one sequential batch),
      bit-identical to the sequential one at every domain count,
    - dirty-cone incremental {!Make.update} via fanout marking, with
      re-evaluation cost proportional to the cone, refining the result
      in place. *)

type 'state result = {
  circuit : Spsta_netlist.Circuit.t;
  per_net : 'state array;  (** indexed by net id; every net holds its final state *)
}
(** Defined outside {!Make} so that results produced by different
    applications of the functor at the same state type are
    interchangeable (analyzers rebuild their domain per call, closing
    over per-call parameters, and feed an earlier [analyze] result to a
    later [update]). *)

module type DOMAIN = sig
  type state

  val source : Spsta_netlist.Circuit.id -> state
  (** State seeded at a source net (primary input or flip-flop output).
      Must be pure: the engine may call it more than once per source. *)

  val eval :
    Spsta_netlist.Circuit.t ->
    Spsta_netlist.Circuit.id ->
    Spsta_netlist.Circuit.driver ->
    state array ->
    state
  (** [eval circuit id driver operands] computes the state of gate [id]
      from the final states of its operands ([operands.(i)] is the state
      of the driver's [inputs.(i)]).  Must be a pure function of its
      arguments: the engine evaluates a whole logic level concurrently,
      and purity is what makes the parallel schedule bit-identical to
      the sequential one.  The [operands] array is a per-worker scratch
      buffer the engine refills for every gate — read it eagerly during
      the call and never retain it. *)
end

val dirty_cone :
  Spsta_netlist.Circuit.t -> changed:Spsta_netlist.Circuit.id list -> Spsta_netlist.Circuit.id array
(** The union of the combinational fanout cones of [changed]: every
    gate-driven net reachable from a changed net without crossing a
    register boundary (a flip-flop Q net is a timing source — its seed
    does not read the D arrival), sorted by topological position so
    replaying the array reproduces exactly the sequential sweep's
    evaluation order.  O(cone log cone).  The marking pass behind both
    {!Make.update} and the flat kernels' updates ({!Flat}). *)

(** Engine-wired invariant sanitizer: wrap any {!DOMAIN} so that every
    state the engine produces — each source seed and each gate output —
    is verified by a caller-supplied predicate before propagation
    continues.  The first violated invariant raises {!Sanitize.Violation}
    naming the circuit, net, driver kind and logic level, which turns
    "the numbers look wrong somewhere" into a pinpointed diagnostic.

    The wrapper is applied (or not) when the domain is built, so an
    unchecked analysis runs the exact same code as before — strictly
    zero overhead when checking is off. *)
module Sanitize : sig
  type 'state check =
    Spsta_netlist.Circuit.t -> Spsta_netlist.Circuit.id -> 'state -> (string * string) option
  (** [check circuit id state] returns [Some (rule, message)] when
      [state] violates the invariant named [rule], [None] when healthy.
      Must be pure — it runs inside the (possibly parallel) sweep. *)

  exception
    Violation of {
      circuit : string;  (** circuit name ("" when unnamed) *)
      net : string;  (** net whose state violated the invariant *)
      driver : string;  (** "input", "dff", or the gate kind ("NAND", …) *)
      level : int;  (** logic level of the net *)
      rule : string;  (** invariant identifier, e.g. "mass-conservation" *)
      message : string;
    }
  (** Registered with [Printexc] so uncaught violations print the full
      location. *)

  val enabled_by_env : unit -> bool
  (** True when the [SPSTA_CHECK] environment variable is set to [1],
      [true], [yes] or [on]. *)

  val resolve : bool option -> bool
  (** Resolve an analyzer's [?check] argument: the explicit value when
      given, otherwise {!enabled_by_env}. *)

  val fail :
    circuit:Spsta_netlist.Circuit.t -> Spsta_netlist.Circuit.id -> rule:string -> message:string -> 'a
  (** Raise {!Violation} located at the given net (name, driver kind and
      level are read off the circuit).  For checkers that verify states
      outside a wrapped {!DOMAIN} — the flat kernels check float slots
      directly and report violations through this. *)

  val wrap :
    circuit:Spsta_netlist.Circuit.t ->
    check:'s check ->
    (module DOMAIN with type state = 's) ->
    (module DOMAIN with type state = 's)
  (** [wrap ~circuit ~check (module D)] is [D] with every [source] and
      [eval] result passed through [check]; a [Some] verdict raises
      {!Violation} located at the offending net. *)
end

module Make (D : DOMAIN) : sig
  val run :
    ?domains:int ->
    Spsta_netlist.Circuit.t ->
    D.state result
  (** Full propagation: seed every source with {!DOMAIN.source}, then
      evaluate every gate with {!DOMAIN.eval} in dependency order.

      [domains] (default 1) evaluates each logic level's gates across
      that many domains of the persistent {!Spsta_util.Parallel} pool
      (spawned once per process, reused across levels, sweeps and
      analyses).  Levels narrower than [max 16 (2 * domains)] gates run
      sequentially on the calling domain, and adjacent narrow levels
      are fused into one batch so deep narrow regions pay no barriers;
      wide levels are split into chunks claimed through an atomic work
      index.  The cutoff, fusion and chunking affect scheduling only,
      never values: results are bit-identical to the sequential
      traversal at every domain count.  Raises [Invalid_argument] if
      [domains < 1]. *)

  val update : D.state result -> changed:Spsta_netlist.Circuit.id list -> unit
  (** In-place incremental re-propagation after the sources in
      [changed] (or the domain parameters affecting them) changed:
      marks the union of the
      combinational fanout cones of [changed], collecting the dirty
      gates as it goes, re-seeds the changed sources and re-evaluates
      exactly the dirty gates in the sequential evaluation order (sorted
      by topo position) — the work is O(cone), never a scan of the whole
      gate list, so update cost tracks the cone size even on
      million-gate circuits.
      Marking stops at register boundaries — a flip-flop Q net is a
      source whose seed does not read the D arrival, so a dirty D net
      leaves the Q side untouched; callers whose seed itself changed (a
      source with new statistics, a Q net between sequential
      iterations) list that net in [changed] directly.  Only the slots
      of the changed sources and the dirty gates are overwritten; every
      other state stays physically the same.  A caller that needs the
      result from before the update copies [per_net] first.  Afterwards
      the result equals a full {!run} with the updated domain whenever
      the domain's [source]/[eval] differ from the original run's only
      at the changed nets. *)
end
