(** Static criticality pruning: per-net min/max arrival bounds.

    With every gate delay bounded in [[dmin, dmax]] (over rise/fall, and
    over every drive strength when pruning for the sizer), a forward
    sweep bounds the arrival at each net and a backward sweep bounds the
    longest remaining path to any endpoint.  A gate whose most
    pessimistic path through it — [amax + downstream_max] — still falls
    short of the most optimistic critical-path length [t_lb] (the best
    case of the worst endpoint) can {e never} lie on a critical path,
    under any delay realisation within the bounds.  {!Spsta_opt.Sizer}
    skips candidate moves on those gates.

    Register boundaries cut paths exactly as in the timing engines:
    sources launch at 0, flip-flop D nets terminate paths. *)

type t

val run :
  ?delay_bounds:(Spsta_netlist.Circuit.id -> float * float) -> Spsta_netlist.Circuit.t -> t
(** [delay_bounds net] gives [(dmin, dmax)] for the gate driving [net];
    defaults to the unit-delay model [(1.0, 1.0)].  Raises
    [Invalid_argument] on bounds that are non-finite, negative or
    inverted. *)

val bounds_of_library :
  Spsta_netlist.Cell_library.t ->
  Spsta_netlist.Circuit.t ->
  Spsta_netlist.Circuit.id ->
  float * float
(** min/max of the cell's rise and fall delays. *)

val bounds_of_sized :
  Spsta_netlist.Sized_library.t ->
  Spsta_netlist.Circuit.t ->
  Spsta_netlist.Circuit.id ->
  float * float
(** min/max over every drive strength {e and} direction — sound for any
    assignment the sizer could ever pick. *)

val arrival_bounds : t -> Spsta_netlist.Circuit.id -> float * float
(** [(amin, amax)] — every realisation's arrival lies within. *)

val t_lb : t -> float
(** Lower bound on the critical-path length: max over endpoints of
    their minimum arrival (0.0 for a circuit without endpoints). *)

val never_critical : t -> Spsta_netlist.Circuit.id -> bool
(** Whether no delay realisation puts this net's driving gate on a
    critical path.  Nets that reach no endpoint are never critical. *)

val num_never_critical : t -> int
(** Over gate-driven nets. *)
