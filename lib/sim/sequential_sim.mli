(** Multi-cycle sequential Monte Carlo: instead of drawing flip-flop
    outputs from an assumed distribution (as the paper's experiments and
    {!Monte_carlo} do), simulate consecutive clock cycles with real
    flip-flop state — the reference for the {!Spsta_core.Sequential}
    fixed-point analysis.

    In cycle [t] a flip-flop output shows the four-value symbol formed by
    its captured values at the two surrounding clock edges, transitioning
    at the edge (time 0); its data net's settled end-of-cycle value is
    captured for cycle [t+1]. *)

type result = {
  circuit : Spsta_netlist.Circuit.t;
  cycles : int;  (** measured cycles (after warm-up) *)
  per_net : Monte_carlo.net_stats array;
}

val simulate :
  ?warmup:int ->
  ?cycles:int ->
  seed:int ->
  Spsta_netlist.Circuit.t ->
  pi_spec:(Spsta_netlist.Circuit.id -> Input_spec.t) ->
  result
(** Defaults: 200 warm-up cycles discarded, 10_000 measured cycles.
    Only primary inputs read [pi_spec]; flip-flop behaviour is emergent.
    Initial state is drawn uniformly. *)

val stats : result -> Spsta_netlist.Circuit.id -> Monte_carlo.net_stats
