(** Fig. 4 of the paper: the MAX and the WEIGHTED SUM results for a
    two-input AND gate whose inputs both have 0.9 signal probability and
    symmetric arrival distributions with the same mean but different
    deviations.  MAX skews the output; the WEIGHTED SUM keeps it
    symmetric. *)

type series_stats = {
  series : (float * float) list;  (** normalised density over time *)
  mean : float;
  stddev : float;
  skewness : float;
}

type result = {
  max_result : series_stats;  (** plain MAX(t1, t2) as SSTA would take *)
  weighted_sum_result : series_stats;  (** SPSTA's rising-output t.o.p., normalised *)
  rise_probability : float;  (** total mass of the rising t.o.p. *)
}

val run : unit -> result
(** Grid step 0.02, arrivals N(5,1) and N(5,0.5). *)

val render : result -> string
