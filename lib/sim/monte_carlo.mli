(** Monte Carlo statistical timing: repeat {!Logic_sim}-semantics trials
    with independently drawn source behaviours and accumulate per-net
    statistics — the paper's accuracy reference (10,000 runs in §4).

    Trial [i] always consumes its own generator, [Rng.stream ~seed i],
    and the per-trial observations are folded in a fixed chunked order,
    so the result is a function of [(seed, runs)] alone: bit-identical
    across engines ([`Scalar] runs one {!Logic_sim.run_random} per
    trial; [`Packed] propagates 64 trials per {!Packed_sim} block) and
    across every [domains] count. *)

type engine = [ `Scalar | `Packed ]

type net_stats = {
  n_runs : int;
  count_zero : int;
  count_one : int;
  count_rise : int;
  count_fall : int;
  rise_times : Spsta_util.Stats.acc;  (** arrival times of observed rises *)
  fall_times : Spsta_util.Stats.acc;
}

val p_zero : net_stats -> float
val p_one : net_stats -> float
val p_rise : net_stats -> float
val p_fall : net_stats -> float
(** Occurrence ratios; all four are 0 when [n_runs = 0]. *)

val signal_probability : net_stats -> float
(** Time-averaged one-probability: p_one + (p_rise + p_fall)/2. *)

val toggling_rate : net_stats -> float

type result = {
  circuit : Spsta_netlist.Circuit.t;
  runs : int;
  per_net : net_stats array;
}

val simulate :
  ?delay_sigma:float ->
  ?mis:Spsta_logic.Mis_model.t ->
  ?runs:int ->
  ?engine:engine ->
  ?domains:int ->
  seed:int ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Input_spec.t) ->
  result
(** [runs] defaults to 10_000, matching the paper.  [delay_sigma] adds
    independent N(1, delay_sigma) process variation per gate
    per run (default 0).  [engine] defaults to [`Packed], the
    bit-parallel fast path; [`Scalar] is the oracle and produces
    bit-identical results.  [domains] (default 1) spreads the trial
    chunks over that many OCaml domains — a pure throughput knob, the
    result does not depend on it.  [spec] must be pure.  Raises
    [Invalid_argument] on negative [runs] or non-positive [domains]. *)

val merge : result -> result -> result
(** Combine two results over the same circuit (e.g. shards of a larger
    campaign); either side may have zero runs.  Raises
    [Invalid_argument] on mismatched circuits. *)

val stats : result -> Spsta_netlist.Circuit.id -> net_stats
