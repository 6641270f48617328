(** Greedy sensitivity-guided statistical gate sizing (TILOS-style,
    after Agarwal/Chopra/Blaauw): trade area and switched capacitance
    against a statistical delay objective on a {!Spsta_netlist.Sized_library}
    size family.

    The objective is a quantile (default the 99th percentile) of the
    chip delay — the Clark MAX over all endpoint settle arrivals of an
    SSTA run under the sized cell delays.  Phase A repeatedly upsizes
    the move with the best Δobjective/Δarea among the most critical
    gates ({!Criticality}); phase B walks the off-critical set in
    descending power-saving order (switched capacitance × transition
    density) and downsizes every gate the objective can spare.

    Every candidate move is evaluated with
    {!Spsta_ssta.Ssta.update} dirty-cone incremental re-analysis on
    an {!Spsta_ssta.Ssta.copy} of the current result, which a committed
    move adopts; the only full propagation is the initial one.  The loop is free of
    randomness and breaks all ties on net id, so a fixed (circuit,
    config) pair reproduces bit-identical reports. *)

type config = {
  quantile : float;  (** objective percentile in (0, 1); default 0.99 *)
  target : float option;
      (** stop upsizing once the objective reaches this; downsizing then
          recovers area against it rather than against the best
          objective achieved *)
  area_budget : float option;  (** absolute cap on total area *)
  max_moves : int;  (** committed-move bound across both phases *)
  candidates : int;  (** critical gates trialled per upsize iteration *)
  downsize_threshold : float;
      (** criticality at or below which a gate counts as off-critical *)
}

val default_config : config
(** quantile 0.99, no target, no budget, 400 moves, 8 candidates,
    threshold 0.01. *)

type move = {
  net : Spsta_netlist.Circuit.id;
  direction : [ `Up | `Down ];
  from_size : int;
  to_size : int;
  objective_after : float;
  area_after : float;
}

type report = {
  moves : move list;  (** in commit order *)
  evaluations : int;
      (** incremental re-analyses performed (trials + commits), not
          counting the single initial full propagation *)
  pruned : int;
      (** upsize candidates rejected by the [prune] filter before any
          trial was spent on them (0 without [prune]) *)
  objective_before : float;
  objective_after : float;
  area_before : float;
  area_after : float;
  capacitance_before : float;
  capacitance_after : float;
  yield_before : (float * float) list;
      (** (yield target, clock) points of the chip-delay curve *)
  yield_after : (float * float) list;
  assignment : Spsta_netlist.Sized_library.assignment;  (** final sizes *)
}

val run :
  ?config:config ->
  ?check:bool ->
  ?initial:Spsta_netlist.Sized_library.assignment ->
  ?prune:(Spsta_netlist.Circuit.id -> bool) ->
  Spsta_netlist.Sized_library.t ->
  Spsta_netlist.Circuit.t ->
  report
(** [prune] marks gates phase A must never trial an upsize on —
    typically {!Spsta_analysis.Crit_bounds.never_critical} under
    {!Spsta_analysis.Crit_bounds.bounds_of_sized}, which is sound for
    every assignment the run could reach.  Pruned gates may still be
    {e downsized} in phase B (shrinking a never-critical gate is
    exactly the point).  Rejections are counted in [report.pruned].

    Sizes the circuit starting from [initial] (default the all-smallest
    assignment; the given array is copied, not mutated).  Starting from
    {!Spsta_netlist.Sized_library.uniform} at the top size turns the
    run into power recovery: phase A finds nothing to upsize and phase
    B downsizes every gate the [target] can spare.
    [check] (default {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    runs every propagation — initial, trial and commit — under the
    arrival sanitizer.  Raises [Invalid_argument] on a config with
    [quantile] outside (0, 1), [max_moves < 0], [candidates < 1], or a
    non-positive [target]/[area_budget], on an [initial] whose length
    or entries do not fit the circuit and family, and on circuits
    without endpoints. *)
