(** Signal transition temporal occurrence probability (t.o.p.) functions
    (paper Definition 3) behind a common interface, so the SPSTA engine
    can run with either representation:

    - {!Moment_backend}: weighted mixtures of normals — fast, carries the
      first two moments exactly through WEIGHTED SUM; MAX/MIN inside a
      multiple-input-switching term is moment-matched (Clark).
    - {!discrete_backend}: mass functions on a uniform time grid — slower
      but captures arbitrary shapes (Fig. 4) with an exact lattice
      MAX/MIN. *)

module type BACKEND = sig
  type top
  (** A t.o.p. function: a non-negative measure over time whose total
      mass is the transition occurrence probability. *)

  val empty : top
  val of_normal : weight:float -> Spsta_dist.Normal.t -> top
  (** A transition occurring with probability [weight], arriving with
      the given distribution. *)

  val total : top -> float
  val scale : top -> float -> top
  val add : top -> top -> top
  (** WEIGHTED SUM accumulation (eq. 8/11: callers apply the weights via
      {!scale}). *)

  val shift : top -> float -> top
  (** Deterministic gate-delay addition. *)

  val convolve_normal : top -> Spsta_dist.Normal.t -> top
  (** Add an independent normal gate delay (process variation, §1):
      convolution with the delay distribution. *)

  val combine : Spsta_logic.Timing_rule.t -> top list -> top
  (** MIN/MAX of the *normalised* arguments, returned with unit mass —
      the [Max_{x_i in R}] factor of eq. 11.  Inputs with zero mass are
      invalid; raises [Invalid_argument] on an empty list. *)

  val mean : top -> float
  (** Mean of the normalised measure; 0 when empty. *)

  val stddev : top -> float
  val compact : top -> top
  (** Bound representation growth (no-op where not needed). *)

  val dropped : top -> float
  (** Accumulated truncation bound: an upper bound on the mass this
      representation has shed relative to an exact computation (0 for
      exact backends).  The sanitizer admits a total mass up to this
      much below the expected transition probability. *)

  val check : what:string -> top -> (string * string) option
  (** Deep representation validation for the {!Spsta_engine.Propagate.Sanitize}
      wrapper: [None] when healthy, [Some (rule, message)] naming the
      first violated invariant (non-finite moment, negative mass, total
      mass above 1, ...). *)

  (** In-place accumulation of a WEIGHTED SUM chain, bit-identical to
      folding {!add} over the same operands in the same order.  The
      engine keeps one accumulator per output direction while
      enumerating input combinations, so backends can reuse a buffer
      across the (up to 4^fanin) terms instead of allocating per
      term. *)
  module Acc : sig
    type t

    val create : unit -> t
    val add : t -> top -> unit
    val to_top : t -> top
  end
end

val moment_max_components : int
(** The component cap (16) {!Moment_backend.compact} bounds every gate
    output's mixture to. *)

module Moment_backend : BACKEND with type top = Spsta_dist.Mixture.t

val discrete_backend :
  ?truncate_eps:float ->
  ?cache_normals:bool ->
  dt:float ->
  unit ->
  (module BACKEND with type top = Spsta_dist.Discrete.t)
(** All values produced by one analysis share the grid step [dt].

    [truncate_eps] (default [1e-9]) epsilon-truncates each gate output's
    tails via {!Spsta_dist.Discrete.truncate}, keeping supports from
    growing with negligible-mass bins on deep circuits; the removed mass
    is tracked in {!Spsta_dist.Discrete.dropped_mass}.  [0.0] disables
    truncation.  [cache_normals] (default [true]) memoises repeated
    normal discretisations (gate-delay kernels, input arrivals). *)
