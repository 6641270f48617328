(** The benchmark suite behind the paper's §4 experiments.

    s27 is the genuine ISCAS'89 netlist (small enough to embed verbatim);
    the nine evaluated circuits are deterministic synthetic stand-ins
    with matching interface/size profiles — see DESIGN.md,
    substitution 1. *)

val s27 : unit -> Spsta_netlist.Circuit.t
(** The real ISCAS'89 s27 netlist. *)

val c17 : unit -> Spsta_netlist.Circuit.t
(** The real ISCAS'85 c17 netlist (combinational, six NAND gates). *)

val evaluated_names : string list
(** The nine circuits of Table 2/3, in paper order: s208 .. s1238. *)

val load : string -> Spsta_netlist.Circuit.t
(** [load "s344"] returns the suite circuit of that name ("s27" and
    "c17" give the real netlists, others their synthetic stand-in).
    Raises [Not_found] for unknown names. *)

val all : unit -> Spsta_netlist.Circuit.t list
(** c17 and s27 plus the nine evaluated circuits. *)
