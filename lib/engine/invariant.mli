(** Numeric invariant predicates shared by the static checker
    ([Spsta_lint.Lint]), the engine-wired sanitizer
    ({!Propagate.Sanitize}) checkers each analyzer builds,
    and the property tests.

    Every predicate returns [[]] (or [None]) when the value is healthy
    and a list of issues otherwise.  An issue pairs a stable rule
    identifier with a human-readable message; the sanitizer lifts the
    first issue into a located {!Propagate.Sanitize.Violation}.

    The paper's pipeline rests on exactly these invariants: four-value
    probabilities sum to 1 (Table 1), t.o.p. functions are non-negative
    sub-probability measures whose mass WEIGHTED SUM/MAX conserve up to
    the tracked epsilon-truncation bound, and moments stay finite. *)

type issue = { rule : string; message : string }

val finite : float -> bool
(** Neither NaN nor infinite. *)

val first : issue list -> (string * string) option
(** The head issue as a [(rule, message)] pair — the shape
    {!Propagate.Sanitize} checkers return. *)

val prob_tolerance : float
(** Slack allowed on probability range and sum checks (1e-6): wide
    enough for the float error a deep WEIGHTED-SUM cascade accumulates,
    orders of magnitude tighter than any real corruption. *)

val check_finite : what:string -> float -> issue list
(** ["non-finite"] when the value is NaN or infinite. *)

val check_nonnegative : what:string -> float -> issue list
(** ["non-finite"] / ["negative-mass"] violations. *)

val check_prob : what:string -> float -> issue list
(** A probability: finite and within [[-tol, 1 + tol]]
    (["probability-range"]). *)

val check_prob_sum : what:string -> (string * float) list -> issue list
(** Each named component a probability, and the sum within
    {!prob_tolerance} of 1 (["probability-sum"]). *)

val check_normal_parts : what:string -> mean:float -> sigma:float -> issue list
(** Finite mean; finite, non-negative sigma (["negative-sigma"]).  The
    float-level form checked against the flat engine's slots without
    materializing a record; {!check_normal} is expressed through it. *)

val check_normal : what:string -> Spsta_dist.Normal.t -> issue list
(** {!check_normal_parts} of the distribution's moments. *)

val check_interval : what:string -> float * float -> issue list
(** Finite, ordered [(lo, hi)] bounds (["inverted-interval"]). *)

val check_cdf : what:string -> float array -> issue list
(** A tabulated cdf: every value a probability and the sequence
    monotone non-decreasing (["non-monotone-cdf"]). *)

val check_mixture : what:string -> Spsta_dist.Mixture.t -> issue list
(** Every component weight finite and non-negative, every component
    normal valid, total weight at most [1 + tol]. *)

val check_discrete : what:string -> Spsta_dist.Discrete.t -> issue list
(** Every bin mass finite and non-negative, the tracked dropped mass
    finite and non-negative, total at most [1 + tol], and mean /
    variance finite. *)

val mass_conserved :
  ?tol:float -> expected:float -> total:float -> dropped:float -> unit -> bool
(** The t.o.p. mass-conservation invariant: a distribution carrying
    [total] observable mass and an accumulated truncation bound
    [dropped] accounts for an [expected] mass when
    [expected - dropped - tol <= total <= expected + tol].
    [tol] defaults to {!prob_tolerance}. *)

val check_mass_conservation :
  what:string -> expected:float -> total:float -> dropped:float -> issue list
(** ["mass-conservation"] when {!mass_conserved} fails. *)
