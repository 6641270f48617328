(** Table 3 of the paper: CPU runtimes of SPSTA, SSTA and 10K-run Monte
    Carlo per circuit.  Absolute seconds are machine-specific; the
    reproduced claim is the ordering (SSTA < SPSTA << MC). *)

type row = {
  circuit_name : string;
  spsta_seconds : float;
  ssta_seconds : float;
  mc_seconds : float;
  mc_runs : int;
}

val run_circuit :
  ?runs:int ->
  ?seed:int ->
  ?mc_domains:int ->
  Spsta_netlist.Circuit.t ->
  case:Workloads.case ->
  row

val run_suite :
  ?runs:int ->
  ?seed:int ->
  ?mc_domains:int ->
  case:Workloads.case ->
  unit ->
  row list
(** [mc_domains] (default 1) spreads the Monte Carlo column over that
    many domains; the measured seconds change, the statistics do not. *)

val render : row list -> string
