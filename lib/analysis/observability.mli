(** Dead and unobservable logic: backward observability from the timing
    endpoints.

    A net is {e observable} when some endpoint (primary output or
    flip-flop D pin) can depend on its value.  The backward transfer
    sharpens plain structural reachability with constant facts from
    {!Constprop}: a gate whose output is a static constant transmits
    nothing, so its inputs are not observable through it — which finds
    dead logic the structural dead-logic lint rule (fanout-reachability
    only) cannot.  Without a [constants] argument the pass degrades to
    exactly the structural rule.

    Both lattices, constant-aware observability and structural
    reachability, are computed in one sweep, so {!sharpened} — dead
    here, alive structurally — is what the [unobservable-logic] lint
    rule reports without duplicating the structural rule's findings. *)

type t

val run : ?constants:Constprop.t -> Spsta_netlist.Circuit.t -> t
(** One reverse-topological sweep over the gates. *)

val observable : t -> Spsta_netlist.Circuit.id -> bool

val reachable : t -> Spsta_netlist.Circuit.id -> bool
(** Plain structural reachability: some endpoint is downstream of the
    net, whatever the constants (the [dead-logic] lint rule). *)

val dead : t -> Spsta_netlist.Circuit.id list
(** Unobservable gate-driven nets, in topological order. *)

val num_dead : t -> int

val sharpened : t -> Spsta_netlist.Circuit.id list
(** Unobservable gate nets that plain structural reachability considers
    alive — the strict improvement over the [dead-logic] lint rule.
    Nets that are themselves static constants are excluded (those are
    the [constant-logic] rule's findings, not this one's). *)

val num_sharpened : t -> int
