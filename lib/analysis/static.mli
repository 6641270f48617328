(** Orchestrator for the static-analysis passes: runs a selected subset
    on one circuit and bundles the results for the CLI, lint, server
    and bench consumers. *)

type pass = [ `Constants | `Reconvergence | `Observability | `Criticality ]

val all_passes : pass list
(** In dependency order: constants before observability. *)

val pass_name : pass -> string
(** "const", "reconv", "obs", "crit". *)

val pass_of_name : string -> pass option
(** Accepts the short names above and a few obvious long spellings
    ("constants", "reconvergence", "observability", "criticality"). *)

type t = {
  circuit : Spsta_netlist.Circuit.t;
  constants : Constprop.t option;
  reconvergence : Reconvergence.t option;
  observability : Observability.t option;
  criticality : Crit_bounds.t option;
}

val run :
  ?passes:pass list ->
  ?p_source:(Spsta_netlist.Circuit.id -> float) ->
  ?delay_bounds:(Spsta_netlist.Circuit.id -> float * float) ->
  Spsta_netlist.Circuit.t ->
  t
(** Runs the requested [passes] (default {!all_passes}; order in the
    list is irrelevant — dependencies decide).  When both are selected,
    {!Observability} consumes {!Constprop}'s constant facts.
    [p_source] and [delay_bounds] parameterise the constant and
    criticality passes respectively (see {!Constprop.run} and
    {!Crit_bounds.run} for their defaults). *)

val fact_counts : t -> (string * int) list
(** One [(name, count)] pair per fact kind the selected passes
    produced — stable names and ordering, for the JSON report:
    [constants], [bounded_nets], [reconvergent_regions], [tainted_nets],
    [unobservable_gates], [sharpened_dead], [never_critical_gates]. *)

val total_facts : t -> int
(** Sum of {!fact_counts}. *)
