(** Dispatch table from experiment identifiers (as used in DESIGN.md and
    the CLI) to the code that regenerates each paper artefact. *)

val experiment_ids : string list
(** "table1", "table2", "table3", "fig1" .. "fig4", "summary". *)

val run :
  ?runs:int -> ?seed:int -> ?mc_domains:int -> string -> string
(** Produce the rendered artefact.  Raises [Not_found] on unknown ids.
    [runs]/[seed] apply to the Monte-Carlo-backed experiments;
    [mc_domains] (default 1) is the Monte Carlo domain count; it changes
    no rendered number ([mc_domains] is ignored by fig1, whose sample
    loop is single-domain). *)
