(** Truth-table representation of Boolean functions over a small, fixed
    input arity.  This is the exact-function substrate behind signal
    probability (eq. 5), Boolean difference (eq. 7), and the power
    estimation equations (eq. 6).

    Inputs are indexed 0..arity-1; an assignment is an int whose bit [i]
    is the value of input [i]. *)

type t

val arity : t -> int

val create : arity:int -> (int -> bool) -> t
(** [create ~arity f] tabulates [f] over all [2^arity] assignments.
    Raises [Invalid_argument] if arity is negative or above {!max_arity}. *)

val max_arity : int
(** Practical cap (20): tables are dense, 2^20 entries at most. *)

val of_gate : Gate_kind.t -> arity:int -> t
(** The function computed by a gate of the given fan-in. *)

val var : arity:int -> int -> t
(** Projection x_i. *)

val const : arity:int -> bool -> t

val eval : t -> int -> bool
(** [eval t assignment]; assignment bits above the arity are ignored. *)

val lnot : t -> t
val land2 : t -> t -> t
val lor2 : t -> t -> t
val lxor2 : t -> t -> t
(** Pointwise connectives.  Raise [Invalid_argument] on arity mismatch. *)

val equal : t -> t -> bool

val cofactor : t -> int -> bool -> t
(** [cofactor t i b] fixes input [i] to [b]; the result keeps the same
    arity but no longer depends on input [i]. *)

val boolean_difference : t -> int -> t
(** Eq. 7: y|x_i=1 XOR y|x_i=0 — the condition under which a transition
    on input [i] propagates to the output. *)

val depends_on : t -> int -> bool

val prob_one : t -> float array -> float
(** [prob_one t p] = P(f = 1) when input [i] is an independent Bernoulli
    with P(one) = p.(i) (eq. 5 generalised).  Array length must equal the
    arity; probabilities must lie in [0, 1].  The sum of row products is
    clamped into [0, 1], absorbing rounding that would overshoot 1. *)

val count_ones : t -> int
(** Number of satisfying assignments. *)
