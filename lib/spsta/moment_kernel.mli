(** Flat struct-of-arrays kernel behind {!Analyzer.Moments}: the
    paper's WEIGHTED SUM propagation of four-value probabilities and
    t.o.p. mixtures (§3.4, eq. 8/11) over preallocated float arrays.

    Per-net probabilities live in four [floatarray]s; mixture components
    [(weight, mu, sigma)] live in one CSR float arena per direction,
    each net owning a slice of min(16, truth-table rows whose output
    goes that way) triples (NOT/BUF take their operand's bound, sources
    one).  Because every net owns its slice, the gates of a level run in
    parallel through {!Spsta_engine.Propagate.Sweep}.

    Results are bit-identical to [Analyzer.Make (Top.Moment_backend)]:
    the kernel replays its enumeration order, Clark folds
    ({!Spsta_dist.Clark.max_mv}), compaction
    ({!Spsta_dist.Mixture.compact_slots}) and moment matching
    ({!Spsta_dist.Mixture.moments_finish}) operation for operation. *)

type t
(** A full analysis result.  Never mutated once returned. *)

type params = {
  source : Spsta_netlist.Circuit.id -> Four_value.t * Spsta_dist.Mixture.t * Spsta_dist.Mixture.t;
      (** a source net's probabilities and rise/fall t.o.p. (at most one
          component each) *)
  delay : Spsta_netlist.Circuit.id -> Spsta_engine.Flat.rf_buf -> unit;
      (** writes a gate's (rise, fall) delay into [rise_mu]/[fall_mu];
          called exactly once per evaluated gate *)
  delay_sigma : float;  (** independent normal delay sigma; 0 = deterministic *)
  mis : Spsta_logic.Mis_model.t option;
  max_enumerated_fanin : int;  (** wider gates fold pairwise *)
  check : (t -> Spsta_netlist.Circuit.id -> (string * string) option) option;
      (** verifies a net right after it is written; a [Some (rule,
          message)] verdict raises
          {!Spsta_engine.Propagate.Sanitize.Violation} at that net *)
}
(** The per-call analysis parameters, as [Analyzer.Moments.analyze] takes
    them. *)

val run :
  params ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  t
(** Full sweep; [domains] as in
    {!Spsta_engine.Propagate.Sweep.run}.  Raises [Invalid_argument] if
    [domains < 1]. *)

val update : params -> t -> changed:Spsta_netlist.Circuit.id list -> t
(** Dirty-cone re-propagation into a fresh arena laid out for the
    circuit's current gate kinds (so a gate retyped since stays in
    bounds); the input is not mutated. *)

val circuit : t -> Spsta_netlist.Circuit.t
val probs : t -> Spsta_netlist.Circuit.id -> Four_value.t

val top : t -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id -> Spsta_dist.Mixture.t
(** The net's t.o.p. in the given direction, built from its slice. *)

val total : t -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id -> float
(** [Mixture.total_weight (top r d id)], without building the list. *)

val mean : t -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id -> float
(** [Mixture.mean (top r d id)], without building the list. *)
