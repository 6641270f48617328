(** [spsta.lint]: static netlist / model checking.

    The checker walks a finalized {!Spsta_netlist.Circuit.t} (and
    optionally a cell library, input-statistics spec and grid-backend
    settings) and emits structured findings for defects the analyses
    would otherwise silently absorb: dead or dangling logic, degenerate
    gate wiring, probability vectors that do not sum to 1, negative or
    non-finite delays, and grid settings whose truncation bound cannot
    keep the discretisation error small.

    Defects a {!Spsta_netlist.Circuit.Builder} refuses to finalize
    (undriven or multiply-driven nets, arity violations, combinational
    cycles) are surfaced by {!lint_path}, which parses a netlist file
    and converts the builder's rejection into an [Error]-severity
    finding under the matching rule. *)

type severity = Error | Warning | Info

type finding = {
  rule : string;  (** stable rule identifier, e.g. "dangling-net" *)
  severity : severity;
  nets : string list;  (** offending net names, possibly empty *)
  message : string;
}

val rules : (string * severity * string) list
(** The rule catalogue: (identifier, severity, description), in the
    order findings are reported.  [doc/lint.md] mirrors this table. *)

val check_structure : Spsta_netlist.Circuit.t -> finding list
(** Structural rules over a finalized circuit: [no-endpoints],
    [no-sources], [duplicate-fanin], [dff-self-loop], [unused-input],
    [dangling-net], [dead-logic], [high-fanin] (arity is the builder's,
    so [arity-mismatch] comes from {!lint_path}). *)

val check_library :
  Spsta_netlist.Cell_library.t -> Spsta_netlist.Circuit.t -> finding list
(** Model rules over the delays of every (kind, fan-in) pair the
    circuit instantiates: [lib-invalid-delay], [lib-zero-delay]. *)

val check_spec :
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  Spsta_netlist.Circuit.t ->
  finding list
(** Model rules over the input statistics of every timing source:
    [spec-probability] (four-value vector outside [0,1] or not summing
    to 1) and [spec-arrival] (non-finite mean / invalid sigma). *)

val check_grid :
  ?spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  dt:float ->
  truncate_eps:float ->
  Spsta_netlist.Circuit.t ->
  finding list
(** Grid-backend settings: [grid-dt] / [grid-eps] (non-positive or
    non-finite), [grid-error-bound] (the worst-case accumulated
    truncation bound [2 * eps * gate_count] exceeds 1e-3, so the
    tracked error bound cannot certify three digits), and
    [grid-dt-coarse] (with [spec]: [dt] exceeds a source arrival
    sigma, so the grid cannot resolve the input distribution). *)

val check_circuit :
  ?library:Spsta_netlist.Cell_library.t ->
  ?spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  ?grid:float * float ->
  Spsta_netlist.Circuit.t ->
  finding list
(** All applicable rule groups: structural ({!check_structure}), the
    dataflow rules [constant-logic], [unobservable-logic] and
    [reconvergent-fanout] (one {!Spsta_analysis} run, whose structural
    lane also decides [dead-logic]), and the model rules whose inputs
    were supplied; [grid] is [(dt, truncate_eps)]. *)

val lint_path :
  ?library:Spsta_netlist.Cell_library.t ->
  ?spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  ?grid:float * float ->
  string ->
  finding list
(** Parse a [.bench] / [.v] netlist file and lint it.  Parser and
    builder rejections become [Error] findings: [io-error],
    [parse-error], or the rule of the builder's
    {!Spsta_netlist.Circuit.violation} — [undriven-net],
    [multiply-driven-net], [arity-mismatch] or [combinational-cycle]
    (nets named). *)

val count : severity -> finding list -> int
val has_errors : finding list -> bool

val exit_code : ?strict:bool -> finding list -> int
(** The [spsta lint] convention: [0] when no Error findings (with
    [strict], also no Warnings), [3] when Errors are present, [4] when
    [strict] and Warnings are present. *)

val render_text : finding list -> string
(** One line per finding: ["  error [rule] message"].  Empty string
    for no findings. *)

val json_of_findings : subject:string -> finding list -> string
(** A JSON object: subject (circuit name or path), per-severity
    counts, and the findings array. *)
