(** Classical corner static timing analysis: per-net [min, max] arrival
    bounds under unit gate delays, input-vector oblivious.  This is the
    "two dotted lines" of the paper's Fig. 1.

    Sweeps and in-place incremental updates run on the flat kernel
    {!Spsta_engine.Flat.Sta}; the test suite keeps a record-engine
    oracle ({!Spsta_engine.Propagate.run}) to compare it against. *)

type bounds = { earliest : float; latest : float }

type result

val analyze :
  ?gate_delay_of:(Spsta_netlist.Circuit.id -> float) ->
  ?input_bounds:bounds ->
  ?input_bounds_of:(Spsta_netlist.Circuit.id -> bounds) ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** [gate_delay_of] gives each gate-output net's delay — e.g. sized-cell
    mean delays from {!Spsta_netlist.Sized_library}; without it every
    gate has the unit delay ({!Spsta_netlist.Cell_library.unit_gate_delay}).

    [input_bounds] defaults to {earliest = 0.; latest = 0.}; the paper's
    N(0,1) inputs are commonly bounded at +-3 sigma, i.e.
    [{earliest = -3.; latest = 3.}].  [input_bounds_of] overrides the
    window per source net.

    [domains] (default 1) evaluates each logic level's gates across that
    many OCaml domains; results are bit-identical to the sequential
    traversal at every domain count.  Raises [Invalid_argument] if
    [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies every propagated window stays a finite, ordered interval,
    raising {!Spsta_engine.Propagate.Sanitize.Violation} otherwise;
    when off nothing is checked. *)

val update :
  ?gate_delay_of:(Spsta_netlist.Circuit.id -> float) ->
  ?input_bounds:bounds ->
  ?input_bounds_of:(Spsta_netlist.Circuit.id -> bounds) ->
  ?check:bool ->
  result ->
  changed:Spsta_netlist.Circuit.id list ->
  unit
(** Incremental re-analysis in place: recompute only the fanout cones
    of the [changed] nets under the new source windows and overwrite
    their bounds in [result].  Afterwards [result] matches a full
    {!analyze} provided nothing outside the cones changed; bounds
    outside the cones are not touched. *)

val bounds : result -> Spsta_netlist.Circuit.id -> bounds

val critical_endpoint : result -> Spsta_netlist.Circuit.id
(** Endpoint with the largest [latest] arrival.  Raises
    [Invalid_argument] if the circuit has no endpoints. *)

val max_latest : result -> float
(** Largest [latest] over all endpoints — the STA clock-period bound.
    Raises [Invalid_argument] if the circuit has no endpoints. *)
