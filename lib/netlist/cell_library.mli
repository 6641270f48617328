(** A simple characterised cell library: per gate kind, a base delay, a
    per-fan-in increment, and a rise/fall asymmetry — the step from the
    paper's uniform unit delay toward realistic standard-cell timing.

    delay(kind, fanin, direction) =
      (base kind + per_input kind * (fanin - 1)) * skew(kind, direction)

    where rise delays are multiplied by [1 + rise_fall_skew kind] and
    fall delays by [1 - rise_fall_skew kind]. *)

type t

val unit_gate_delay : float
(** The paper's delay model (Table 2): 1.0 per gate, nothing per net —
    the delay of every analysis that is given no per-gate delay. *)

val unit_delay : t
(** The paper's model: every delay is exactly {!unit_gate_delay}. *)

val default : t
(** A generic library: inverters fastest, XOR slowest, fan-in adds ~15%
    per input, NAND/NOR mildly rise/fall asymmetric. *)

val make :
  base:(Spsta_logic.Gate_kind.t -> float) ->
  per_input:(Spsta_logic.Gate_kind.t -> float) ->
  rise_fall_skew:(Spsta_logic.Gate_kind.t -> float) ->
  t
(** Raises [Invalid_argument] if any base or per-input delay is negative
    or a skew magnitude reaches 1. *)

val delay : t -> Spsta_logic.Gate_kind.t -> fanin:int -> [ `Rise | `Fall ] -> float

val rise_fall_of : t -> Spsta_logic.Gate_kind.t -> fanin:int -> float * float
(** (rise delay, fall delay). *)

val gate_delays :
  t -> Circuit.t -> Circuit.id -> float * float
(** (rise, fall) delay of the gate driving this net.
    Raises [Invalid_argument] if the net is not gate-driven. *)
