(** Bit-parallel four-value logic-and-timing simulation: one call to
    {!run} propagates up to 64 independent Monte Carlo trials (lanes)
    through the whole circuit, using {!Packed_value4} plane semantics
    for the symbols and mask-selected per-lane min/max blends for the
    arrival times.

    Lane [l] of a run reproduces exactly — bit for bit on the symbol,
    float for float on the arrival time — what
    {!Logic_sim.run_random} would compute with generator [rngs.(l)]:
    the per-lane draw order (gate-delay gaussians for every net when
    [delay_sigma > 0], then the sources in [Circuit.sources] order),
    the {!Spsta_logic.Timing_rule} MIN/MAX winner selection, and the
    MIS delay factors are all replicated.  The scalar simulator is the
    oracle; this engine is the fast path. *)

type t
(** Reusable simulation state for one circuit: the gate program plus
    plane/time buffers.  Not safe for concurrent use; give each domain
    its own. *)

val create : Spsta_netlist.Circuit.t -> t

val circuit : t -> Spsta_netlist.Circuit.t

val run :
  ?delay_sigma:float ->
  ?mis:Spsta_logic.Mis_model.t ->
  t ->
  rngs:Spsta_util.Rng.t array ->
  spec:(Spsta_netlist.Circuit.id -> Input_spec.t) ->
  unit
(** Simulate one block of [Array.length rngs] trials (1..64); lane [l]
    draws from [rngs.(l)], which is advanced in place.  Defaults match
    {!Logic_sim.run_random}: unit gate delay, [delay_sigma] 0.
    [spec] is assumed pure (it is consulted once per source per call,
    not once per lane).  Raises [Invalid_argument] on an empty or
    oversized [rngs]. *)

val lanes_used : t -> int
(** Number of lanes of the most recent {!run} (0 before any). *)

val active : t -> int64
(** Mask of the lanes of the most recent run: bits [0 .. lanes_used-1]. *)

val planes : t -> Spsta_netlist.Circuit.id -> Packed_value4.t
(** Packed symbol planes of a net after {!run}.  Lanes at or beyond
    {!lanes_used} are unspecified; mask with {!active}. *)

val lane_value : t -> Spsta_netlist.Circuit.id -> lane:int -> Spsta_logic.Value4.t
(** Net symbol in one lane of the last run; raises [Invalid_argument]
    for lanes at or beyond {!lanes_used}. *)

val lane_time : t -> Spsta_netlist.Circuit.id -> lane:int -> float
(** Net arrival time in one lane of the last run: the transition time
    for Rising/Falling lanes and 0.0 for steady lanes, exactly like the
    [times] array of {!Logic_sim.run}. *)

(** {2 Raw accumulation interface}

    Zero-copy views for the Monte Carlo accumulator; read-only, valid
    until the next {!run}, layout subject to change. *)

val raw_planes : t -> int array
(** Planes as native 32-lane halves, 4 words per net:
    [4*net] initial lanes 0-31, [4*net+1] initial lanes 32-63,
    [4*net+2] final lanes 0-31, [4*net+3] final lanes 32-63.  Lanes at
    or beyond {!lanes_used} are unspecified. *)

val raw_times : t -> float array
(** Arrival times, lane-major: [64*net + lane].  Meaningful only where
    the lane is active and the net transitions in that lane. *)
