(** Gate-level sequential circuits in the ISCAS'89 style: primary inputs,
    primary outputs, D flip-flops, and combinational gates over named nets.

    For timing purposes flip-flop outputs are *timing sources* (they launch
    a cycle alongside the primary inputs, and the paper assigns them input
    statistics exactly like primary inputs) and flip-flop data inputs are
    *timing endpoints* alongside the primary outputs. *)

type id = int
(** Dense net identifier, [0 .. num_nets - 1], assigned in declaration
    order: the [k]-th net given a driver ({!Builder.add_input},
    {!Builder.add_dff}'s [q], {!Builder.add_gate}'s [output]) gets id
    [k], whatever order its references arrive in.  Names, report order
    and tie-breaks by id follow from it. *)

type driver =
  | Input  (** primary input *)
  | Dff_output of { data : id }  (** flip-flop Q; [data] is its D net *)
  | Gate of { kind : Spsta_logic.Gate_kind.t; inputs : id array }

type t

(** The structural rule a rejected netlist breaks. *)
type violation =
  | Multiple_drivers  (** a net has more than one driver *)
  | Undriven  (** a referenced net or an output has no driver *)
  | Cycle  (** gates form a combinational loop *)
  | Arity  (** a gate's fan-in is outside its kind's bounds *)

exception Invalid_circuit of { violation : violation; message : string }
(** Raised by the {!Builder} on undriven nets, arity violations,
    duplicate drivers, or combinational cycles.  [message] names the
    nets; callers classify by [violation], never by the text. *)

module Builder : sig
  type circuit := t
  type t

  val create : ?name:string -> unit -> t
  val add_input : t -> string -> unit
  val add_dff : t -> q:string -> d:string -> unit
  val add_gate : t -> output:string -> Spsta_logic.Gate_kind.t -> string list -> unit
  val add_output : t -> string -> unit
  val finalize : t -> circuit
  (** Validates and freezes the circuit; computes topological order,
      levels and fanout maps.  Raises {!Invalid_circuit}: an undriven
      net is named by the first undriven name the builder saw.  A
      builder that finalized is spent; using it again raises
      [Invalid_argument]. *)
end

val name : t -> string
(** Circuit name ("" when not set). *)

val num_nets : t -> int
val net_name : t -> id -> string
val find : t -> string -> id option
val find_exn : t -> string -> id
(** Raises [Invalid_argument] with a message naming both the missing
    net and the circuit, e.g.
    ["Circuit.find_exn: no net \"nope\" in circuit \"s27\""]. *)

val driver : t -> id -> driver

val copy : t -> t
(** A copy that {!retype_gate} can edit without touching the original.
    Only the driver table is duplicated, and the copy builds its own
    {!csr} on first use; names, net ids, fanout maps, topological order,
    levels, sources and endpoints are shared, so the copy answers every
    query with the original's ids.  O(nets). *)

val retype_gate : t -> id -> Spsta_logic.Gate_kind.t -> unit
(** Swap the logical function of the gate driving this net, in place —
    an ECO edit, deliberately {e not} semantics-preserving.  The input
    edges are unchanged, so topology, levels, fanout maps and
    topological order all remain valid; only analyses that consult the
    gate kind (timing via the cell library, logic evaluation) see the
    change.  Raises [Invalid_argument] if the net is not gate-driven or
    the existing fan-in violates the new kind's arity bounds. *)

val primary_inputs : t -> id list
val primary_outputs : t -> id list
val dffs : t -> (id * id) list
(** (q, d) pairs. *)

val sources : t -> id list
(** Primary inputs followed by flip-flop outputs: the nets that receive
    input statistics.  Precomputed at {!Builder.finalize}; O(1). *)

val endpoints : t -> id list
(** Primary outputs followed by flip-flop data nets (deduplicated):
    where critical-path statistics are read.  Precomputed at
    {!Builder.finalize}; O(1). *)

val fanout : t -> id -> id array
(** Gates (and flip-flops, via their data pin) driven by a net. *)

val topo_gates : t -> id array
(** All [Gate] nets in a valid combinational evaluation order. *)

val topo_position : t -> id -> int
(** Index of a gate net in {!topo_gates} (-1 for sources).  Lets sparse
    gate sets be replayed in exactly the sequential evaluation order by
    sorting on this key — the incremental engine's dirty cone is. *)

val gates_by_level : t -> id array array
(** {!topo_gates} grouped by {!level}, ascending, preserving topological
    order within each group.  Gates in one group depend only on earlier
    groups (and on sources), never on each other, so a group is a unit of
    safe concurrent evaluation.  Empty levels are omitted; concatenating
    the groups is a valid evaluation order covering every gate once. *)

type csr = {
  gate_net : id array;  (** = {!topo_gates}: gate [k] drives [gate_net.(k)] *)
  kind_code : int array;  (** {!Spsta_logic.Gate_kind.to_code} of gate [k] *)
  fanin_off : int array;
      (** length [num_gates + 1]; gate [k] reads
          [fanin.(fanin_off.(k)) .. fanin.(fanin_off.(k+1) - 1)] *)
  fanin : id array;  (** concatenated fan-in net ids, in declaration order *)
  level_off : int array;
      (** length [Array.length (gates_by_level t) + 1]; group [l] of
          {!gates_by_level} is gates [level_off.(l) .. level_off.(l+1) - 1] *)
  max_fanin : int;
}
(** Flat CSR view of the combinational gates, for kernels that walk the
    circuit as int arrays instead of chasing [driver] constructors. *)

val csr : t -> csr
(** Built once on first use and cached on the circuit; {!retype_gate}
    keeps the cached [kind_code] in sync.  Treat as read-only. *)

val level : t -> id -> int
(** Unit-delay logic level: 0 for sources, 1 + max(input levels) for
    gates. *)

val depth : t -> int
(** Maximum level over all nets (0 for a gate-free circuit). *)

val gate_count : t -> int
val count_gates_of_kind : t -> Spsta_logic.Gate_kind.t -> int

val pp_summary : Format.formatter -> t -> unit
(** One-line "name: #PI #PO #DFF #gates depth" summary. *)
