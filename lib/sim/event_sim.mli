(** Event-driven transient logic simulation.

    The cycle simulator ({!Logic_sim}) computes only the start/end levels
    and one settle time per net — glitches are invisible by construction.
    This engine plays the cycle out: source transitions are scheduled as
    events, every gate re-evaluates when an input changes and schedules
    its output change one gate delay later, and the result is the full
    waveform of every net.  Glitches (pulses that cancel before the cycle
    ends) appear as extra transitions, which is exactly what
    transition-density power estimation (eq. 6) counts and the
    four-value analysis deliberately filters (§3.3).

    An optional inertial window drops scheduled output changes that are
    overridden within [inertial] time units — the classic pulse-width
    filtering of gate-level simulators. *)

type waveform = {
  initial : bool;  (** level at the start of the cycle *)
  changes : (float * bool) list;  (** (time, new level), chronological *)
}

val final : waveform -> bool
val transition_count : waveform -> int
val settle_time : waveform -> float
(** Time of the last change; 0.0 for constant waveforms. *)

type result

val run :
  ?inertial:float ->
  Spsta_netlist.Circuit.t ->
  source_values:(Spsta_netlist.Circuit.id -> Spsta_logic.Value4.t * float) ->
  result
(** Same interface as {!Logic_sim.run}, at the unit gate delay: each
    source contributes its start level and (for r/f values) one
    transition at the given time.
    [inertial] (default 0) cancels a *pending* output change when a new
    one is scheduled within the window — the standard gate-level
    filtering, effective for input spacings below the gate delay plus
    the window; the default still suppresses zero-width pulses from
    simultaneous opposing input events. *)

val waveform : result -> Spsta_netlist.Circuit.id -> waveform

val total_transitions : result -> int
(** Sum of transition counts over every net: the quantity eq. 6
    estimates in expectation. *)

val glitch_count : result -> Spsta_netlist.Circuit.id -> int
(** Transitions beyond what the start/end levels require: 0 for a clean
    net, 2 per full pulse. *)
