(** Steady-state flip-flop statistics by fixed-point iteration.

    The paper's experiments *assign* statistics to flip-flop outputs.
    This extension computes them: a flip-flop output launches each cycle
    with the value its data net settled to in the previous cycle, so in
    steady state (and treating consecutive cycles as independent — the
    standard approximation) a flip-flop whose data net ends the cycle at
    one with probability [q] has

      P(1) = q^2,  P(0) = (1-q)^2,  P(rise) = P(fall) = q (1-q)

    as its launch distribution, with transitions at the clock edge.
    Iterating the four-value propagation until the [q]'s stabilise gives
    input statistics that are *consistent* with the circuit, rather than
    assumed. *)

type t

val fixed_point :
  ?damping:float ->
  Spsta_netlist.Circuit.t ->
  pi_spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  t
(** Iterates from q = 1/2 for every flip-flop until the largest |dq| of
    an iteration falls below 1e-9, for at most 100 iterations.
    [damping] in (0, 1] (fraction of the new estimate used per step)
    defaults to 1.0.  Primary-input statistics come from [pi_spec]. *)

val converged : t -> bool
val iterations : t -> int

val ff_final_one : t -> Spsta_netlist.Circuit.id -> float
(** Steady-state P(data net ends the cycle at one) for a flip-flop
    output net.  Raises [Invalid_argument] for non-flip-flop nets. *)

val probs : t -> Spsta_netlist.Circuit.id -> Four_value.t
(** Converged four-value probabilities of any net. *)

val spec :
  t ->
  pi_spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  Spsta_netlist.Circuit.id ->
  Spsta_sim.Input_spec.t
(** A source-spec function for the timing analyzers: primary inputs keep
    [pi_spec]; flip-flop outputs get their converged probabilities with
    transitions at the clock edge (deterministic time 0). *)
