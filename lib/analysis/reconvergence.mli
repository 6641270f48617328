(** Reconvergent-fanout region detection (paper §3.5).

    The paper's eq. 5 propagates signal probabilities as if gate inputs
    were independent; that assumption breaks exactly where the paths of
    a fanout stem remerge.  The pass detects regions with a bounded
    forward walk from every fanout stem, tracking which branch reaches
    each net: the first net (by level, then id) reached by two or more
    distinct branches is the region's merge — the first gate whose
    inputs are correlated by this stem.  The walk catches {e partial}
    reconvergence (branches that remerge while others diverge toward
    different endpoints), the common shape in real netlists; it is
    capped per stem ([region_gate_cap]), so distant remerges are an
    admitted under-approximation.  Per region the pass records the
    remerging branch width, the level depth to the merge, and a capped
    interior net count.

    [tainted] is the forward closure of every remerge net: the set of
    nets whose eq. 5 probability may be unsound.  Everything is
    restricted to the combinational frame (flip-flop boundaries cut
    both the walk and the taint closure, matching the paper's treatment
    of flip-flop outputs as fresh sources). *)

type region = {
  stem : Spsta_netlist.Circuit.id;  (** the fanout stem *)
  merge : Spsta_netlist.Circuit.id;
      (** first net (by level, then id) where branches remerge *)
  width : int;  (** distinct branches of the stem remerging at [merge] *)
  depth : int;  (** level(merge) - level(stem) *)
  gates : int option;
      (** nets strictly between stem and merge levels inside the walked
          cone (dead side branches included), [None] when the bounded
          walk exceeded its cap *)
}

type t

val run : ?region_gate_cap:int -> Spsta_netlist.Circuit.t -> t
(** [region_gate_cap] (default 64) bounds the per-stem forward walk
    (and the first 62 branches of a stem carry tracking bits); it is
    kept for the oracle test's small-cap coverage, and every library
    caller uses the default.  The walk is linear in the nets and edges
    it touches. *)

val regions : t -> region list
(** In topological order of the stem. *)

val num_regions : t -> int

val is_stem : t -> Spsta_netlist.Circuit.id -> bool
(** Whether the net heads a reconvergent region. *)

val tainted : t -> Spsta_netlist.Circuit.id -> bool
(** Whether independent-probability propagation (eq. 5) is unsound on
    this net. *)

val num_tainted : t -> int

val cross_check :
  ?p_source:(Spsta_netlist.Circuit.id -> float) ->
  ?max_nodes:int ->
  Spsta_netlist.Circuit.t ->
  t ->
  (Spsta_netlist.Circuit.id * float * float) list
(** For each region merge net, [(net, eq5, exact)]: the independent
    (eq. 5) probability versus the BDD-exact one ({!Spsta_bdd.Circuit_bdd}),
    quantifying the unsoundness the region detection flags.  [p_source]
    defaults to 0.5 everywhere; [max_nodes] (default 200_000) bounds the
    BDD build — returns [] when the circuit is too large to build
    exactly. *)
