(** Block-based SSTA over first-order canonical forms — the
    principal-component-aware SSTA the paper positions itself against
    (its reference [25]).  Identical MIN/MAX structure to
    {!Spsta_ssta.Ssta} but arrivals are canonical forms over a shared
    process-parameter vector, so path-sharing and spatial correlations
    survive the MAX operation. *)

type arrival = { rise : Canonical.t; fall : Canonical.t }

type result

val analyze :
  ?input_sigma:float ->
  ?check:bool ->
  ?domains:int ->
  Param_model.t ->
  Param_model.placement ->
  Spsta_netlist.Circuit.t ->
  result
(** Source arrivals are N(0, input_sigma) in the independent term
    (default 1.0, the paper's inputs); gate delays come from the model's
    canonical forms.

    Traversal comes from {!Spsta_engine.Propagate}: [domains]
    (default 1) evaluates each logic level's gates across that many
    OCaml domains with results bit-identical to the sequential
    traversal.  Raises [Invalid_argument] if [domains < 1].

    [check] (default: {!Spsta_engine.Propagate.Sanitize.enabled_by_env})
    verifies every canonical form keeps a finite mean, finite
    sensitivities and a non-negative independent sigma, raising
    {!Spsta_engine.Propagate.Sanitize.Violation} otherwise; when off
    nothing is checked. *)

val arrival : result -> Spsta_netlist.Circuit.id -> arrival

val critical_endpoint : result -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id

val endpoint_correlation :
  result -> [ `Rise | `Fall ] -> Spsta_netlist.Circuit.id -> Spsta_netlist.Circuit.id -> float
(** Correlation between two endpoint arrivals through the shared
    parameters — information a (mean, sigma)-only SSTA cannot provide. *)

val chip_delay : result -> Canonical.t
(** Canonical MAX over all endpoint arrivals (both directions): the
    clock-period-setting distribution. *)
