(** CSV export of analysis artefacts, so results plot with any external
    tool (gnuplot, pandas, ...).  Columns are documented per function;
    all files carry a one-line header. *)

val csv_of_series : header:string -> (float * float) list -> string
(** Two-column CSV from (x, y) pairs; [header] names the columns, e.g.
    "time,density". *)

val top_series :
  ?dt:float ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  net:Spsta_netlist.Circuit.id ->
  string
(** "time,rise_density,fall_density" of a net's t.o.p. functions from
    the discretised analyzer (grid [dt], default 0.05). *)

val mc_histogram :
  ?runs:int ->
  ?seed:int ->
  ?bins:int ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  net:Spsta_netlist.Circuit.id ->
  string
(** "time,rise_density" histogram of Monte Carlo rise arrivals at a
    net.  Trial [i] draws from [Rng.stream ~seed i], as in
    {!Spsta_sim.Monte_carlo}. *)

val chip_delay_distribution :
  ?dt:float ->
  Spsta_netlist.Circuit.t ->
  spec:(Spsta_netlist.Circuit.id -> Spsta_sim.Input_spec.t) ->
  string
(** "time,mass" of the {!Spsta_core.Chip_delay} distribution. *)

val table2_csv : Table2.row list -> string
(** The Table 2 rows as CSV
    ("circuit,dir,endpoint,spsta_mu,...,mc_p"). *)

val write_file : path:string -> string -> unit
