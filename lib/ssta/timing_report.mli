(** Deterministic timing reports on top of {!Sta}: required times,
    slacks, and worst-path backtraces against a clock constraint — the
    signoff-style view that frames what the statistical engines refine.

    Arrival times use the latest (max) corner; required times propagate
    backward from the clock period at every endpoint; slack = required -
    arrival.  Negative slack = violation. *)

type t

val analyze :
  ?input_arrival:float ->
  clock_period:float ->
  Spsta_netlist.Circuit.t ->
  t
(** Every gate has the unit delay
    ({!Spsta_netlist.Cell_library.unit_gate_delay}); [input_arrival]
    (default 0) is the latest launch time of every source. *)

val arrival : t -> Spsta_netlist.Circuit.id -> float
(** Latest arrival at the net. *)

val required : t -> Spsta_netlist.Circuit.id -> float
(** Latest permissible arrival.  Nets that reach no endpoint get
    [infinity] (their timing cannot matter). *)

val slack : t -> Spsta_netlist.Circuit.id -> float

val worst_slack : t -> float
val violations : t -> Spsta_netlist.Circuit.id list
(** Endpoints with negative slack, worst first. *)

val worst_path : t -> Spsta_netlist.Circuit.id list
(** Source-to-endpoint backtrace through the latest-arrival inputs of
    the worst-slack endpoint. *)

val render : Spsta_netlist.Circuit.t -> t -> string
(** A signoff-style summary: worst slack, violation count, and the worst
    path with per-stage arrivals. *)
