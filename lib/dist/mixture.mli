(** Weighted mixtures of normal components.

    This is the moment-based representation of a signal transition
    temporal-occurrence-probability (t.o.p.) function (paper §3.1/§3.4):
    total weight = transition occurrence probability (the t.o.p. integral,
    i.e. the toggling rate per cycle), and the normalised mixture is the
    arrival-time pdf.  The paper's WEIGHTED SUM (eq. 8) is mixture
    combination. *)

type component = { weight : float; dist : Normal.t }

type t
(** A (possibly empty) mixture.  Empty = no transition ever occurs. *)

val weight_epsilon : float
(** Components at or below this weight are dropped (1e-15). *)

val empty : t
val singleton : weight:float -> Normal.t -> t
(** Raises [Invalid_argument] on a negative weight. *)

val components : t -> component list

val of_components : component list -> t
(** The mixture with exactly these components, in order; components
    at or below {!weight_epsilon} are dropped, as by {!singleton}.
    Raises [Invalid_argument] on a negative weight. *)

val total_weight : t -> float
(** The t.o.p. integral: occurrence probability of the transition. *)

val is_empty : t -> bool
(** True when the total weight is (numerically) zero. *)

val scale : t -> float -> t
(** Multiply every weight (the P(dy/dx_i) factor of eq. 8). *)

val add : t -> t -> t
(** WEIGHTED SUM: union of components. *)

val sum : t list -> t

val add_delay : t -> float -> t
(** Shift every component by a deterministic gate delay (SUM, eq. 1). *)

val add_normal_delay : t -> Normal.t -> t
(** Convolve every component with an independent normal delay. *)

val mean : t -> float
(** Mean of the normalised mixture; 0 when empty. *)

val variance : t -> float
(** Variance of the normalised mixture (includes between-component
    spread); 0 when empty. *)

val stddev : t -> float

val skewness : t -> float
(** Standardised third central moment of the normalised mixture —
    exact (each normal component contributes analytically); 0 when the
    variance vanishes.  This is what quantifies the MAX-induced
    asymmetry SSTA's normality assumption hides (paper Fig. 2/4). *)

val normalized_moments : t -> Clark.moments option
(** [None] when empty. *)

val as_normal : t -> Normal.t option
(** Moment-matched normal of the normalised mixture; [None] when empty. *)

val compact : ?max_components:int -> t -> t
(** Merge components to bound mixture growth.  Components are merged by
    moment matching of adjacent (by mean) components until at most
    [max_components] remain (default 64).  Total weight, normalised mean
    and variance are preserved exactly for each pairwise merge. *)

val cdf : t -> float -> float
(** Cdf of the normalised mixture; 0 everywhere when empty. *)

val quantile : t -> float -> float
(** p-quantile of the normalised mixture (bisection on {!cdf}).
    Raises [Invalid_argument] for p outside (0, 1) or an empty
    mixture. *)

val sample : Spsta_util.Rng.t -> t -> float option
(** Draw an arrival time from the normalised mixture ([None] if empty). *)

(** {2 Float-level cores}

    The moment arithmetic behind {!normalized_moments}/{!as_normal}, the
    pairwise merge inside {!compact}, and {!compact} itself, exposed for
    flat kernels that keep components as [(weight, mu, sigma)] float
    triples.  The list API above runs through these same functions, so
    both representations share one formula and agree bit for bit. *)

type moments_buf = {
  mutable mb_weight : float;  (** component in: weight; matched weight out *)
  mutable mb_mu : float;  (** component in: mean; matched mean out *)
  mutable mb_sigma : float;  (** component in: stddev; matched stddev out *)
  mutable mb_total : float;  (** accumulated weight *)
  mutable mb_m1 : float;  (** accumulated first raw moment *)
  mutable mb_m2 : float;  (** accumulated second raw moment *)
}
(** Caller-owned all-float accumulator: reads, writes and calls never
    box or allocate.  Reuse one per worker. *)

val moments_buf : unit -> moments_buf

val moments_clear : moments_buf -> unit
(** Zero the accumulators. *)

val moments_add : moments_buf -> unit
(** Add the component in [mb_weight]/[mb_mu]/[mb_sigma]. *)

val moments_finish : moments_buf -> unit
(** Normalise the accumulated moments by [mb_total] (written back into
    [mb_m1]/[mb_m2]) and write the moment-matched normal into
    [mb_mu]/[mb_sigma], with [mb_weight = mb_total].  Callers check
    [mb_total] first: {!as_normal} is [None] at or below
    {!weight_epsilon}. *)

val compact_slots :
  moments_buf -> floatarray -> off:int -> len:int -> max_components:int -> int
(** [compact_slots buf arena ~off ~len ~max_components] is {!compact}
    in place on the [len] triples starting at triple [off] of [arena]
    (triple [s] is [arena.(3s), arena.(3s+1), arena.(3s+2)]); returns
    the number of triples kept, which then occupy the first slots of
    the range. *)
