(** Size groups over a characterised cell library: for every logical
    function (gate kind x fan-in), a family of sized variants indexed by
    drive strength.  This is the cell-selection space of statistical
    gate sizing (Agarwal/Chopra/Blaauw, "Statistical Timing Based
    Optimization using Gate Sizing"): upsizing a gate buys delay at the
    cost of area and switched capacitance.

    A family is derived from an existing {!Cell_library} by a geometric
    ladder of drive strengths.  The default scaling laws are the usual
    first-order model

    - delay(k)  = base_delay * (intrinsic + (1 - intrinsic) / drive_k)
      — non-increasing in drive strength,
    - area(k)   = base_area * drive_k — non-decreasing,
    - cap(k)    = base_cap  * drive_k — non-decreasing,

    so stronger variants are never slower and never smaller.  Custom
    scaling hooks may violate those monotonicity laws; the lint rule
    [size-group] ({!Spsta_lint.Lint}) checks them over every (kind,
    fan-in) pair a circuit actually instantiates.

    A {!assignment} maps every net to the size index of its driving
    gate; it is the mutable state a sizing loop edits in place (see
    {!Transform.resize_gate}). *)

type t

val make :
  ?intrinsic:float ->
  ?delay_scale:(drive:float -> float) ->
  ?area_scale:(drive:float -> float) ->
  ?cap_scale:(drive:float -> float) ->
  drives:float array ->
  Cell_library.t ->
  t
(** [drives] are the drive strengths of the size group, smallest first.
    Raises [Invalid_argument] if [drives] is empty, non-finite,
    non-positive, or not strictly increasing, or if [intrinsic] (default
    0.3) lies outside [0, 1].  The scaling hooks default to the laws
    above; they are trusted here and audited by lint rule
    [size-group]. *)

val family : ?sizes:int -> ?ratio:float -> ?intrinsic:float -> Cell_library.t -> t
(** The generator: an N-size family ([sizes], default 4) on a geometric
    drive ladder [1, ratio, ratio^2, ...] ([ratio] default 1.5) with the
    default scaling laws.  Raises [Invalid_argument] if [sizes < 1] or
    [ratio <= 1]. *)

val default : t
(** [family Cell_library.default]: four sizes, ratio 1.5. *)

val base : t -> Cell_library.t
val num_sizes : t -> int
val drive : t -> int -> float
(** Drive strength of a size index.  Raises [Invalid_argument] when the
    index is outside [0, num_sizes). *)

val delay :
  t -> size:int -> Spsta_logic.Gate_kind.t -> fanin:int -> [ `Rise | `Fall ] -> float

val rise_fall_of : t -> size:int -> Spsta_logic.Gate_kind.t -> fanin:int -> float * float

val area : t -> size:int -> Spsta_logic.Gate_kind.t -> fanin:int -> float
(** Cell area (arbitrary units) of the sized variant. *)

val capacitance : t -> size:int -> Spsta_logic.Gate_kind.t -> fanin:int -> float
(** Switched capacitance of the sized variant — the per-toggle dynamic
    power proxy ({!Spsta_power.Power_model} supplies the V^2 f scale). *)

(** {2 Per-circuit size assignments} *)

type assignment = int array
(** [assignment.(id)] is the size index of the gate driving net [id];
    entries of non-gate nets are ignored (kept at 0). *)

val initial : Circuit.t -> assignment
(** Every gate at size 0 — the smallest, slowest variant. *)

val uniform : t -> Circuit.t -> size:int -> assignment
(** Every gate at the same size index — [size = num_sizes - 1] is the
    fastest, largest starting point of a power-recovery sizing run.
    Raises [Invalid_argument] when the index is outside
    [0, num_sizes). *)

val copy : assignment -> assignment

val size_of : assignment -> Circuit.id -> int

val delay_rf :
  t -> Circuit.t -> assignment -> Circuit.id -> float * float
(** (rise, fall) delay of the gate driving this net at its assigned
    size.  Raises [Invalid_argument] if the net is not gate-driven or
    its assigned size is outside the family. *)

val gate_area : t -> Circuit.t -> assignment -> Circuit.id -> float
val gate_capacitance :
  t -> Circuit.t -> assignment -> Circuit.id -> float

val total_area : t -> Circuit.t -> assignment -> float
(** Sum of {!gate_area} over every gate. *)

val total_capacitance : t -> Circuit.t -> assignment -> float
(** Sum of {!gate_capacitance} over every gate. *)
