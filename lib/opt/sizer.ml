module Circuit = Spsta_netlist.Circuit
module Sized_library = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Normal = Spsta_dist.Normal
module Clark = Spsta_dist.Clark
module Ssta = Spsta_ssta.Ssta
module Transition_density = Spsta_power.Transition_density
module Input_spec = Spsta_sim.Input_spec

type config = {
  quantile : float;
  target : float option;
  area_budget : float option;
  max_moves : int;
  candidates : int;
  downsize_threshold : float;
}

let default_config =
  {
    quantile = 0.99;
    target = None;
    area_budget = None;
    max_moves = 400;
    candidates = 8;
    downsize_threshold = 0.01;
  }

type move = {
  net : Circuit.id;
  direction : [ `Up | `Down ];
  from_size : int;
  to_size : int;
  objective_after : float;
  area_after : float;
}

type report = {
  moves : move list;
  evaluations : int;
  pruned : int;
  objective_before : float;
  objective_after : float;
  area_before : float;
  area_after : float;
  capacitance_before : float;
  capacitance_after : float;
  yield_before : (float * float) list;
  yield_after : (float * float) list;
  assignment : Sized_library.assignment;
}

let validate config =
  if not (config.quantile > 0.0 && config.quantile < 1.0) then
    invalid_arg "Sizer: quantile must lie in (0, 1)";
  if config.max_moves < 0 then invalid_arg "Sizer: max_moves must be non-negative";
  if config.candidates < 1 then invalid_arg "Sizer: candidates must be at least 1";
  (match config.target with
  | Some t when not (t > 0.0) -> invalid_arg "Sizer: target must be positive"
  | _ -> ());
  match config.area_budget with
  | Some a when not (a > 0.0) -> invalid_arg "Sizer: area_budget must be positive"
  | _ -> ()

let settle (a : Ssta.arrival) = Clark.max_normal a.Ssta.rise a.Ssta.fall

let chip_normal ~endpoints result =
  Clark.max_normal_many (List.map (fun e -> settle (Ssta.arrival result e)) endpoints)

let yield_points = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let yield_curve chip = List.map (fun p -> (p, Normal.quantile chip p)) yield_points

(* First [k] elements satisfying [f]; the candidate lists are already
   ranked, so this is "the top of the list, skipping rejects". *)
let rec take_where k f = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> if f x then x :: take_where (k - 1) f rest else take_where k f rest

let run ?(config = default_config) ?check ?initial ?prune sized circuit =
  validate config;
  let endpoints = Circuit.endpoints circuit in
  if endpoints = [] then invalid_arg "Sizer.run: circuit has no endpoints";
  let top = Sized_library.num_sizes sized - 1 in
  let asg =
    match initial with
    | None -> Sized_library.initial circuit
    | Some given ->
      if Array.length given <> Circuit.num_nets circuit then
        invalid_arg "Sizer.run: initial assignment length differs from the net count";
      Array.iter
        (fun s ->
          if s < 0 || s > top then
            invalid_arg "Sizer.run: initial assignment has a size outside the family")
        given;
      Sized_library.copy given
  in
  let delay_rf id = Sized_library.delay_rf sized circuit asg id in
  let objective result = Normal.quantile (chip_normal ~endpoints result) config.quantile in
  let result = ref (Ssta.analyze ~delay_rf ?check circuit) in
  let evaluations = ref 0 in
  let phi = ref (objective !result) in
  let area = ref (Sized_library.total_area sized circuit asg) in
  let objective_before = !phi in
  let area_before = !area in
  let capacitance_before = Sized_library.total_capacitance sized circuit asg in
  let yield_before = yield_curve (chip_normal ~endpoints !result) in
  let moves = ref [] in
  let num_moves = ref 0 in
  (* Upsize candidates rejected by the static never-critical filter —
     hopeless moves the incremental engine never has to trial. *)
  let pruned = ref 0 in
  let keep g =
    match prune with
    | None -> true
    | Some p ->
      if p g then (
        incr pruned;
        false)
      else true
  in
  let record direction net from_size to_size =
    incr num_moves;
    moves :=
      { net; direction; from_size; to_size; objective_after = !phi; area_after = !area }
      :: !moves
  in
  (* One trial: flip the gate to [size], re-analyse just its cone on a
     copy (the current result must survive a rejected trial), undo. *)
  let trial g ~size =
    let before = asg.(g) in
    let dirty = Transform.resize_gate sized circuit asg g ~size in
    let r' = Ssta.copy !result in
    Ssta.update ~delay_rf ?check r' ~changed:dirty;
    incr evaluations;
    let phi' = objective r' in
    let area_trial = Sized_library.gate_area sized circuit asg g in
    ignore (Transform.resize_gate sized circuit asg g ~size:before);
    let da = area_trial -. Sized_library.gate_area sized circuit asg g in
    (r', phi', da)
  in
  let target_met () = match config.target with Some t -> !phi <= t | None -> false in
  let within_budget da =
    match config.area_budget with Some b -> !area +. da <= b | None -> true
  in
  (* Phase A: upsize the best objective-per-area move on the critical set. *)
  let improving = ref true in
  while !improving && !num_moves < config.max_moves && not (target_met ()) do
    improving := false;
    let crit = Criticality.of_ssta !result in
    let cands =
      Criticality.ranked crit
      |> take_where config.candidates (fun (g, c) -> c > 0.0 && asg.(g) < top && keep g)
    in
    let best =
      List.fold_left
        (fun best (g, _) ->
          let r', phi', da = trial g ~size:(asg.(g) + 1) in
          if phi' < !phi && within_budget da then begin
            let merit = (!phi -. phi') /. Float.max da epsilon_float in
            match best with
            | Some (_, _, _, best_merit) when best_merit >= merit -> best
            | _ -> Some (g, r', da, merit)
          end
          else best)
        None cands
    in
    match best with
    | None -> ()
    | Some (g, r', da, _) ->
      let from_size = asg.(g) in
      ignore (Transform.resize_gate sized circuit asg g ~size:(from_size + 1));
      result := r';
      phi := objective r';
      area := !area +. da;
      record `Up g from_size (from_size + 1);
      improving := true
  done;
  (* Phase B: downsize off-critical gates, biggest power saving first,
     as long as the objective limit holds. *)
  let limit =
    match config.target with Some t -> Float.max t !phi | None -> !phi
  in
  let density =
    Transition_density.of_input_specs circuit ~spec:(fun _ -> Input_spec.case_i)
  in
  let saving g =
    (* Switched-capacitance drop of one downsize step, weighted by how
       often the net actually toggles. *)
    let s = asg.(g) in
    let cap k =
      let _ = Transform.resize_gate sized circuit asg g ~size:k in
      Sized_library.gate_capacitance sized circuit asg g
    in
    let drop = cap s -. cap (s - 1) in
    let _ = Transform.resize_gate sized circuit asg g ~size:s in
    drop *. Transition_density.density density g
  in
  let progress = ref true in
  while !progress && !num_moves < config.max_moves do
    progress := false;
    let crit = Criticality.of_ssta !result in
    let cands =
      Circuit.topo_gates circuit |> Array.to_list
      |> List.filter (fun g ->
             asg.(g) > 0 && Criticality.criticality crit g <= config.downsize_threshold)
      |> List.map (fun g -> (g, saving g))
      |> List.stable_sort (fun (g1, s1) (g2, s2) ->
             match compare s2 s1 with 0 -> compare g1 g2 | n -> n)
    in
    List.iter
      (fun (g, _) ->
        if !num_moves < config.max_moves then begin
          let from_size = asg.(g) in
          let r', phi', da = trial g ~size:(from_size - 1) in
          if phi' <= limit then begin
            ignore (Transform.resize_gate sized circuit asg g ~size:(from_size - 1));
            result := r';
            phi := phi';
            area := !area +. da;
            record `Down g from_size (from_size - 1);
            progress := true
          end
        end)
      cands
  done;
  {
    moves = List.rev !moves;
    evaluations = !evaluations;
    pruned = !pruned;
    objective_before;
    objective_after = !phi;
    area_before;
    area_after = !area;
    capacitance_before;
    capacitance_after = Sized_library.total_capacitance sized circuit asg;
    yield_before;
    yield_after = yield_curve (chip_normal ~endpoints !result);
    assignment = asg;
  }
