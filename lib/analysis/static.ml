module Circuit = Spsta_netlist.Circuit

type pass = [ `Constants | `Reconvergence | `Observability | `Criticality ]

let all_passes : pass list = [ `Constants; `Reconvergence; `Observability; `Criticality ]

let pass_name = function
  | `Constants -> "const"
  | `Reconvergence -> "reconv"
  | `Observability -> "obs"
  | `Criticality -> "crit"

let pass_of_name = function
  | "const" | "constants" | "constprop" -> Some `Constants
  | "reconv" | "reconvergence" -> Some `Reconvergence
  | "obs" | "observability" -> Some `Observability
  | "crit" | "criticality" -> Some `Criticality
  | _ -> None

type t = {
  circuit : Circuit.t;
  constants : Constprop.t option;
  reconvergence : Reconvergence.t option;
  observability : Observability.t option;
  criticality : Crit_bounds.t option;
}

let run ?(passes = all_passes) ?p_source ?delay_bounds circuit =
  let want p = List.mem p passes in
  let constants = if want `Constants then Some (Constprop.run ?p_source circuit) else None in
  let reconvergence = if want `Reconvergence then Some (Reconvergence.run circuit) else None in
  let observability =
    if want `Observability then Some (Observability.run ?constants circuit) else None
  in
  let criticality =
    if want `Criticality then Some (Crit_bounds.run ?delay_bounds circuit) else None
  in
  { circuit; constants; reconvergence; observability; criticality }

let fact_counts t =
  let opt o f = match o with None -> [] | Some x -> f x in
  opt t.constants (fun c ->
      [ ("constants", Constprop.num_constants c); ("bounded_nets", Constprop.num_bounded c) ])
  @ opt t.reconvergence (fun r ->
        [
          ("reconvergent_regions", Reconvergence.num_regions r);
          ("tainted_nets", Reconvergence.num_tainted r);
        ])
  @ opt t.observability (fun o ->
        [
          ("unobservable_gates", Observability.num_dead o);
          ("sharpened_dead", Observability.num_sharpened o);
        ])
  @ opt t.criticality (fun c ->
        [ ("never_critical_gates", Crit_bounds.num_never_critical c) ])

let total_facts t = List.fold_left (fun acc (_, n) -> acc + n) 0 (fact_counts t)
