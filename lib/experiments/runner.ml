let experiment_ids =
  [ "table1"; "table2"; "table3"; "fig1"; "fig2"; "fig3"; "fig4"; "summary" ]

let run ?runs ?seed ?mc_domains id =
  match id with
  | "table1" -> Table1.render ()
  | "table2" ->
    let part case =
      Table2.render ~case
        (Table2.suite_rows (Table2.run_suite ?runs ?seed ?mc_domains ~case ()))
    in
    part Workloads.Case_i ^ "\n\n" ^ part Workloads.Case_ii
  | "table3" ->
    Table3.render (Table3.run_suite ?runs ?seed ?mc_domains ~case:Workloads.Case_i ())
  | "fig1" -> Fig1.render (Fig1.run ?runs ?seed ~case:Workloads.Case_i ())
  | "fig2" -> Fig2.render (Fig2.run ())
  | "fig3" -> Fig3.render (Fig3.run ())
  | "fig4" -> Fig4.render (Fig4.run ())
  | "summary" -> Summary.render (Summary.run ?runs ?seed ?mc_domains ())
  | _ -> raise Not_found
