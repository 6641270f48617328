(** The one levelized propagation engine behind every analyzer.

    Each timing analysis in the reproduction — SPSTA moment/grid
    propagation, min/max SSTA, corner STA, bounds-SSTA, canonical-form
    SSTA and interval/affine STA — is the same traversal: seed the
    sources, then fold each gate's operand states into its output state
    in topological order.  This module implements that traversal exactly
    once, as {!Sweep} over a {!KERNEL}, and gives every kernel

    - the sequential topological sweep,
    - the levelized domain-parallel sweep ({!Spsta_netlist.Circuit.gates_by_level}
      + the persistent worker pool behind {!Spsta_util.Parallel.run_chunks}:
      wide levels are cut into chunks claimed through an atomic work
      index, runs of narrow levels are fused into one sequential batch),
      bit-identical to the sequential one at every domain count,
    - dirty-cone incremental update via fanout marking ({!dirty_cone}),
      with re-evaluation cost proportional to the cone, refining the
      result in place.

    The flat kernels ({!Flat}, [Spsta_core.Moment_kernel]) keep per-net
    state in float arrays; the record engine ({!run}, {!update}) keeps
    one boxed state per net and takes the per-gate transfer function as
    a plain closure. *)

val dirty_cone :
  Spsta_netlist.Circuit.t -> changed:Spsta_netlist.Circuit.id list -> Spsta_netlist.Circuit.id array
(** The union of the combinational fanout cones of [changed]: every
    gate-driven net reachable from a changed net without crossing a
    register boundary (a flip-flop Q net is a timing source — its seed
    does not read the D arrival), sorted by topological position so
    replaying the array reproduces exactly the sequential sweep's
    evaluation order.  O(cone log cone). *)

(** Engine-wired invariant sanitizer: every state the engine produces —
    each source seed and each gate output — can be verified by a
    caller-supplied predicate before propagation continues.  The first
    violated invariant raises {!Sanitize.Violation} naming the circuit,
    net, driver kind and logic level, which turns "the numbers look
    wrong somewhere" into a pinpointed diagnostic.  An unchecked
    analysis runs the exact same arithmetic. *)
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
      level are read off the circuit).  The flat kernels check float
      slots directly and report violations through this. *)
end

(** {1 The scheduler} *)

(** A kernel: per-net state plus one gate evaluated at a time by CSR
    index.  {!Sweep} supplies the scheduling every kernel shares. *)
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

module Sweep (K : KERNEL) : sig
  val run : ?domains:int -> K.t -> unit
  (** Seed every source, then evaluate every gate in dependency order.

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
      [domains < 1] or on a circuit with nets but no sources. *)

  val update : K.t -> changed:Spsta_netlist.Circuit.id list -> unit
  (** In-place incremental re-propagation after the sources in
      [changed] (or the parameters affecting them) changed: re-seeds
      the changed sources and re-evaluates exactly the gates of
      {!dirty_cone}, in the sequential evaluation order — the work is
      O(cone), never a scan of the whole gate list.  Marking stops at
      register boundaries, so callers whose seed itself changed (a
      source with new statistics, a Q net between sequential
      iterations) list that net in [changed] directly.  Only the
      changed sources and the dirty gates are written. *)
end

(** {1 The record engine} *)

type 'state result = {
  circuit : Spsta_netlist.Circuit.t;
  per_net : 'state array;  (** indexed by net id; every net holds its final state *)
}

val run :
  ?check:'state Sanitize.check ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  source:(Spsta_netlist.Circuit.id -> 'state) ->
  eval:
    (Spsta_netlist.Circuit.t ->
    Spsta_netlist.Circuit.id ->
    Spsta_netlist.Circuit.driver ->
    'state array ->
    'state) ->
  'state result
(** Full propagation on {!Sweep}: seed every source with [source], then
    evaluate every gate with [eval circuit id driver operands]
    ([operands.(i)] is the final state of the driver's [inputs.(i)]).

    [source] must be pure: the engine may call it more than once per
    source.  [eval] must be a pure function of its arguments — that is
    what makes the parallel schedule bit-identical to the sequential
    one — and must read [operands] eagerly and never retain it: it is a
    per-worker buffer refilled for every gate.

    [check], when given, verifies every seeded and evaluated state and
    raises {!Sanitize.Violation} at the first net it rejects.
    [domains] as in {!Sweep.run}. *)

val update :
  ?check:'state Sanitize.check ->
  'state result ->
  source:(Spsta_netlist.Circuit.id -> 'state) ->
  eval:
    (Spsta_netlist.Circuit.t ->
    Spsta_netlist.Circuit.id ->
    Spsta_netlist.Circuit.driver ->
    'state array ->
    'state) ->
  changed:Spsta_netlist.Circuit.id list ->
  unit
(** {!Sweep.update} on a {!run} result, in place: every other slot stays
    physically the same, so a caller that needs the result from before
    the update copies [per_net] first.  Afterwards the result equals a
    full {!run} whenever [source]/[eval] differ from the original run's
    only at the changed nets. *)
