(** The paper's two input-statistics regimes (§4), applied uniformly to
    every timing source. *)

type case = Case_i | Case_ii

val all_cases : case list
val case_name : case -> string
(** "I" or "II". *)

val uniform :
  Spsta_sim.Input_spec.t -> Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t
(** A constant per-source spec function. *)

val spec_fn : case -> Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t
