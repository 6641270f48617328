(** Table 2 of the paper: means, standard deviations and occurrence
    probabilities of the rising and falling transitions on the most
    critical path, for SPSTA, min/max-separated SSTA, and 10K-run Monte
    Carlo, under input cases I and II. *)

type method_stats = { mu : float; sigma : float; prob : float }

type row = {
  circuit_name : string;
  direction : [ `Rise | `Fall ];
  endpoint : string;  (** net name of the critical endpoint used *)
  spsta : method_stats;
  ssta : method_stats;  (** [prob] is [nan]: SSTA provides none (paper obs. 4) *)
  mc : method_stats;
}

val run_circuit :
  ?runs:int ->
  ?seed:int ->
  ?mc_domains:int ->
  Spsta_netlist.Circuit.t ->
  case:Workloads.case ->
  row list
(** Two rows (rise then fall).  The critical endpoint is selected per
    direction as the endpoint with the largest Monte Carlo mean arrival
    (the reference's view of criticality); all three methods are read at
    that same net.  [runs] defaults to 10_000, [seed] to 42.
    [mc_domains] (default 1) is the Monte Carlo domain count; the rows
    are identical at every count. *)

val run_suite :
  ?runs:int ->
  ?seed:int ->
  ?mc_domains:int ->
  case:Workloads.case ->
  unit ->
  row list
(** All nine evaluated circuits, rise rows first (paper layout). *)

val render : case:Workloads.case -> row list -> string
(** ASCII rendering in the paper's column layout. *)
