(** Single-cycle four-value logic simulation with arrival-time
    propagation — one Monte Carlo trial of the paper's reference
    simulator (§4): four-value symbols propagate through the netlist, no
    glitches are counted, and transition times combine under the MIN/MAX
    rule dictated by each gate's logic and the transition direction.

    Arrival times are exact for gates with a controlling value and for
    single-switching-input XOR gates; for XOR-family gates with several
    switching inputs the reported time is the conservative settle bound
    (the transient can cancel internally and settle earlier — see
    {!Event_sim} for the exact waveform). *)

type result = {
  values : Spsta_logic.Value4.t array;  (** per net id *)
  times : float array;  (** arrival time per net id; meaningful only for transitions *)
}

val run :
  ?delay_rf:(Spsta_netlist.Circuit.id -> float * float) ->
  ?mis:Spsta_logic.Mis_model.t ->
  Spsta_netlist.Circuit.t ->
  source_values:(Spsta_netlist.Circuit.id -> Spsta_logic.Value4.t * float) ->
  result
(** [run circuit ~source_values] assigns each source net the given
    four-value symbol and arrival time, then evaluates every gate in
    topological order.  [delay_rf] gives each gate's (rise, fall) delay
    (e.g. a {!Spsta_netlist.Cell_library}); without it every gate has
    the paper's unit delay and net delays are zero. *)

val run_random :
  ?delay_sigma:float ->
  ?mis:Spsta_logic.Mis_model.t ->
  Spsta_util.Rng.t ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Input_spec.t) ->
  result
(** Draw every source independently from its {!Input_spec.t} and
    simulate.  A positive [delay_sigma] draws every gate's delay from
    N(1, delay_sigma) independently for this run (process
    variation for a concrete input vector — the paper's §1 point that
    variation effects differ per vector). *)
