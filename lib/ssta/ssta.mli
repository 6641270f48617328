(** Block-based, min/max-separated statistical static timing analysis —
    the paper's baseline (§2.1 and §4).

    Every net carries one normal arrival distribution per transition
    direction.  SUM adds the gate delay (eq. 2); multi-input gates apply
    Clark's moment-matched MAX or MIN (eq. 4) according to the gate logic
    and transition direction; inverting gates swap rise and fall.  Like
    static timing analysis, SSTA assumes a transition always occurs, so
    it is oblivious to input statistics — the property the paper
    criticises.

    Sweeps and in-place incremental updates run on the flat kernel
    {!Spsta_engine.Flat.Ssta}; the record engine
    ({!Spsta_engine.Propagate.run}) is kept only as the test oracle,
    behind {!analyze_rf}'s [engine]. *)

type arrival = { rise : Spsta_dist.Normal.t; fall : Spsta_dist.Normal.t }

type result

val analyze :
  ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** [delay_rf] gives each gate's deterministic (rise, fall) delay — e.g.
    cell-library timing ({!Spsta_netlist.Cell_library.gate_delays});
    without it every gate has the unit delay
    ({!Spsta_netlist.Cell_library.unit_gate_delay}).  [input_arrival]
    defaults to standard normal for both directions (the paper's source
    statistics); [input_arrival_of] overrides it per source net.

    [domains] (default 1) evaluates each logic level's gates across that
    many OCaml domains; results are bit-identical to the sequential
    traversal at every domain count.  Raises [Invalid_argument] if
    [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies every propagated arrival pair stays finite with
    non-negative sigmas, raising
    {!Spsta_engine.Propagate.Sanitize.Violation} naming the circuit,
    net, gate kind and level otherwise; when off nothing is checked. *)

val analyze_variational :
  gate_delay:(Spsta_netlist.Circuit.id -> Spsta_dist.Normal.t) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** Same propagation with an independent normal delay per gate — used by
    the process-variation ablation. *)

val analyze_rf :
  ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  ?domains:int ->
  ?engine:[ `Flat | `Record ] ->
  Spsta_netlist.Circuit.t ->
  result
(** {!analyze} plus the test-oracle selector [engine].  The default
    [`Flat] is {!analyze}.  [`Record] is the boxed-record engine
    ({!Spsta_engine.Propagate.run}) that differential tests and the
    benchmark's output checks compare it against; the two are
    bit-identical (IEEE-exact, asserted in the test suite at every
    domain count).  {!update} stays on the engine that produced its
    input result. *)

val update :
  ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?input_arrival:arrival ->
  ?input_arrival_of:(Spsta_netlist.Circuit.id -> arrival) ->
  ?check:bool ->
  result ->
  changed:Spsta_netlist.Circuit.id list ->
  unit
(** Incremental re-analysis in place: recompute only the fanout cones
    of the [changed] nets (e.g. sources whose arrival statistics
    changed, or gates whose cell changed) under [delay_rf] and the
    *new* source arrivals, and overwrite those nets' arrivals in
    [result].  [delay_rf] is consulted for every dirty gate, so passing
    a resized gate's output net in [changed] re-evaluates it with its
    new cell ({!Spsta_netlist.Transform.resize_gate}).  Afterwards
    [result] matches a full {!analyze} under the same arguments provided
    nothing outside the cones changed; arrivals outside the cones are
    not touched.  The work is the cone alone, with no per-update copy of
    the per-net state.  A caller that must keep the old result (a trial
    move it may reject) updates a {!copy}. *)

val copy : result -> result
(** An independent result with the same arrivals, on the same engine:
    updating either leaves the other unchanged.  Costs one copy of the
    per-net state. *)

val circuit_of : result -> Spsta_netlist.Circuit.t

val arrival : result -> Spsta_netlist.Circuit.id -> arrival

val critical_endpoint : result -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id
(** Endpoint with the largest mean arrival for the given direction.
    Raises [Invalid_argument] if the circuit has no endpoints. *)

val max_arrival : result -> [ `Rise | `Fall ] -> Spsta_dist.Normal.t
(** Arrival distribution at the {!critical_endpoint}. *)
