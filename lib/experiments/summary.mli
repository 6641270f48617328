(** The paper's §4 headline numbers: average relative errors of SPSTA and
    SSTA against Monte Carlo over the Table 2 rows (means and standard
    deviations of critical-path arrivals), and the average signal
    probability error of SPSTA across all nets. *)

type errors = {
  spsta_mu : float;
  spsta_sigma : float;
  ssta_mu : float;
  ssta_sigma : float;
  rows_used : int;
}

type t = {
  arrival_errors : errors;
  signal_prob_error : float;  (** mean relative SP error over all nets *)
  signal_prob_nets : int;
}

val of_rows : Table2.row list -> errors
(** Rows whose Monte Carlo transition probability is below 0.5% are
    skipped (their MC moments are noise). *)

val run :
  ?runs:int ->
  ?seed:int ->
  ?mc_domains:int ->
  unit ->
  t
(** Runs Table 2 for both cases plus a per-net signal-probability
    comparison on the full suite.  [mc_domains] (default 1) is the Monte
    Carlo domain count; the result is identical at every count. *)

val render : t -> string
