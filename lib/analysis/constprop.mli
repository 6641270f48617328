(** Constant and signal-probability-interval propagation.

    Every net carries an interval [[lo, hi]] bounding its one-probability
    P(net = 1) under {e arbitrary} correlation between gate inputs: the
    per-gate transfer uses the Fréchet–Hoeffding bounds (AND of p and q
    lies in [max(0, p+q-1), min(p, q)], OR in [max(p, q), min(1, p+q)],
    XOR in [|p-q| .. min(p+q, 2-p-q)]), so unlike the paper's eq. 5 the
    result is sound on reconvergent fanout.  Literal duplicate fan-in is
    recognised (a AND a = a, a XOR a = 0), which is what lets structural
    constants appear without constant sources.

    A net whose interval collapses to exactly [0,0] or [1,1] is a
    {e static constant}: controlling values propagate through
    {!Spsta_logic.Gate_kind} semantics (AND with a constant-0 input is
    constant 0, etc.), so one constant seeds a folded cone.  Downstream
    consumers ({!Observability}, lint rule [constant-logic]) read the
    constant set through {!const_of} and {!constants}.

    Sources default to [[0,1]]; [p_source] pins a source to a point
    probability (and exact 0/1 pins make it a constant).  Pinned
    flip-flop outputs are left alone by the register boundary; unpinned
    ones are narrowed each round by intersecting with their D net's
    interval (sound for the steady state, where Q and D share a
    distribution). *)

type t

val run : ?p_source:(Spsta_netlist.Circuit.id -> float) -> Spsta_netlist.Circuit.t -> t
(** One forward sweep over the gates, then one more after each register
    boundary that narrows a flip-flop output, up to 64 sweeps.  Raises
    [Invalid_argument] if [p_source] yields a value outside [0,1]. *)

val lo : t -> Spsta_netlist.Circuit.id -> float
val hi : t -> Spsta_netlist.Circuit.id -> float
val interval : t -> Spsta_netlist.Circuit.id -> float * float

val const_of : t -> Spsta_netlist.Circuit.id -> bool option
(** [Some v] when the net is statically tied to [v]. *)

val constants : t -> Spsta_netlist.Circuit.id list
(** Gate-driven nets that are static constants, in topological order
    (pinned constant sources are the caller's spec, not a discovery,
    and are excluded here — {!const_of} still reports them). *)

val num_constants : t -> int
(** [List.length (constants t)]. *)

val num_bounded : t -> int
(** Nets whose interval is strictly narrower than [[0,1]]. *)
