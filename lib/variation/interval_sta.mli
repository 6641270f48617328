(** Interval-valued static timing analysis over affine forms (the
    paper's §3.6 alternative to moment propagation).

    Every source arrival and every gate delay is an affine form over its
    own noise symbol; arrivals propagate with SUM = affine add and
    MAX = {!Affine.join_max}.  Reconvergent paths share noise symbols,
    so correlations survive where plain intervals lose them; reported
    intervals are the intersection of the affine and the naive interval
    enclosures (both guaranteed, so the intersection is too, and never
    wider than either).  Any concrete realisation of the uncertainties
    yields arrivals inside the enclosures (property-tested against
    Monte Carlo). *)

type result

val analyze :
  ?delay_radius:float ->
  ?input_radius:float ->
  ?check:bool ->
  ?domains:int ->
  Spsta_netlist.Circuit.t ->
  result
(** Source arrivals are 0 +- [input_radius] (default 3.0, the +-3 sigma
    window of the paper's N(0,1) inputs); every gate's delay is
    the unit delay +- [delay_radius] (default 0).

    Traversal comes from {!Spsta_engine.Propagate}.  Each net draws its
    noise symbols from a private deterministic id range, so [domains]
    (default 1) parallelism is race-free and bit-identical to the
    sequential traversal at every domain count.  Raises
    [Invalid_argument] if [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies both enclosures stay finite ordered intervals and always
    intersect (each is guaranteed to contain the true arrival), raising
    {!Spsta_engine.Propagate.Sanitize.Violation} otherwise; when off
    nothing is checked. *)

val arrival : result -> Spsta_netlist.Circuit.id -> Affine.t

val arrival_interval : result -> Spsta_netlist.Circuit.id -> float * float

val chip_interval : result -> float * float
(** Enclosure of the latest endpoint arrival. *)

val naive_chip_interval : result -> float * float
(** The same computation with plain intervals (no shared symbols),
    exposed so the two enclosures can be compared. *)
