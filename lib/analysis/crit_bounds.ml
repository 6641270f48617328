(* Interval arrival analysis.  Two single-round passes on the dataflow
   driver: forward min/max arrivals (the bound of a MAX-fold is the
   MAX-fold of the bounds), backward longest-remaining-path.  Registers
   cut paths, so neither pass needs a boundary round. *)

module Circuit = Spsta_netlist.Circuit
module Cell_library = Spsta_netlist.Cell_library
module Sized_library = Spsta_netlist.Sized_library

type t = {
  circuit : Circuit.t;
  amin : float array;
  amax : float array;
  down : float array;  (* max delay still ahead; -inf when no endpoint is reachable *)
  dmin : float array;
  dmax : float array;
  t_lb : float;
  stats : Dataflow.stats;
}

let forward_transfer t csr k =
  let out = csr.Circuit.gate_net.(k) in
  let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
  let lo = ref neg_infinity and hi = ref neg_infinity in
  for j = i0 to i1 - 1 do
    let i = csr.Circuit.fanin.(j) in
    lo := Float.max !lo t.amin.(i);
    hi := Float.max !hi t.amax.(i)
  done;
  let lo = !lo +. t.dmin.(out) and hi = !hi +. t.dmax.(out) in
  if lo <> t.amin.(out) || hi <> t.amax.(out) then (
    t.amin.(out) <- lo;
    t.amax.(out) <- hi;
    true)
  else false

let backward_transfer t csr k =
  let out = csr.Circuit.gate_net.(k) in
  if t.down.(out) = neg_infinity then false
  else (
    let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
    let cand = t.down.(out) +. t.dmax.(out) in
    let changed = ref false in
    for j = i0 to i1 - 1 do
      let i = csr.Circuit.fanin.(j) in
      if cand > t.down.(i) then (
        t.down.(i) <- cand;
        changed := true)
    done;
    !changed)

let no_boundary _t _circuit = false

let unit_bounds =
  (Spsta_netlist.Cell_library.unit_gate_delay, Spsta_netlist.Cell_library.unit_gate_delay)

let run ?arena ?(delay_bounds = fun _ -> unit_bounds) circuit =
  let arena = match arena with Some a -> a | None -> Dataflow.Arena.create circuit in
  let n = Circuit.num_nets circuit in
  let amin = Dataflow.Arena.floats arena "amin" ~init:0.0 in
  let amax = Dataflow.Arena.floats arena "amax" ~init:0.0 in
  let down = Dataflow.Arena.floats arena "down" ~init:neg_infinity in
  Array.fill amin 0 n 0.0;
  Array.fill amax 0 n 0.0;
  Array.fill down 0 n neg_infinity;
  let dmin = Array.make n 0.0 and dmax = Array.make n 0.0 in
  Array.iter
    (fun g ->
      let lo, hi = delay_bounds g in
      if not (Float.is_finite lo && Float.is_finite hi && 0.0 <= lo && lo <= hi) then
        invalid_arg
          (Printf.sprintf "Crit_bounds.run: bad delay bounds (%g, %g) for net %s" lo hi
             (Circuit.net_name circuit g));
      dmin.(g) <- lo;
      dmax.(g) <- hi)
    (Circuit.topo_gates circuit);
  let t =
    {
      circuit;
      amin;
      amax;
      down;
      dmin;
      dmax;
      t_lb = 0.0;
      stats = { Dataflow.rounds = 0; sweeps = 0; gate_visits = 0 };
    }
  in
  List.iter (fun e -> down.(e) <- 0.0) (Circuit.endpoints circuit);
  let module Forward = struct
    type nonrec t = t

    let name = "crit-bounds-forward"
    let direction = `Forward
    let state = t
    let transfer = forward_transfer
    let boundary = no_boundary
  end in
  let module Backward = struct
    type nonrec t = t

    let name = "crit-bounds-backward"
    let direction = `Backward
    let state = t
    let transfer = backward_transfer
    let boundary = no_boundary
  end in
  let s1 = Dataflow.run ~max_rounds:1 circuit (module Forward) in
  let s2 = Dataflow.run ~max_rounds:1 circuit (module Backward) in
  let t_lb =
    List.fold_left (fun acc e -> Float.max acc amin.(e)) 0.0 (Circuit.endpoints circuit)
  in
  {
    t with
    t_lb;
    stats =
      {
        Dataflow.rounds = s1.Dataflow.rounds + s2.Dataflow.rounds;
        sweeps = s1.Dataflow.sweeps + s2.Dataflow.sweeps;
        gate_visits = s1.Dataflow.gate_visits + s2.Dataflow.gate_visits;
      };
  }

let bounds_of_library library circuit id =
  let r, f = Cell_library.gate_delays library circuit id in
  (Float.min r f, Float.max r f)

let bounds_of_sized sized circuit id =
  match Circuit.driver circuit id with
  | Circuit.Gate { kind; inputs } ->
    let fanin = Array.length inputs in
    let lo = ref infinity and hi = ref neg_infinity in
    for s = 0 to Sized_library.num_sizes sized - 1 do
      let r, f = Sized_library.rise_fall_of sized ~size:s kind ~fanin in
      lo := Float.min !lo (Float.min r f);
      hi := Float.max !hi (Float.max r f)
    done;
    (!lo, !hi)
  | _ ->
    invalid_arg
      (Printf.sprintf "Crit_bounds.bounds_of_sized: net %s is not gate-driven"
         (Circuit.net_name circuit id))

let arrival_bounds t id = (t.amin.(id), t.amax.(id))
let t_lb t = t.t_lb
let never_critical t id = t.amax.(id) +. t.down.(id) < t.t_lb

let num_never_critical t =
  Array.fold_left
    (fun acc g -> if never_critical t g then acc + 1 else acc)
    0 (Circuit.topo_gates t.circuit)

let stats t = t.stats
