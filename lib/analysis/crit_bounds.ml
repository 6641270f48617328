(* Interval arrival analysis over the CSR gate stream: a forward sweep
   of min/max arrivals (the bound of a MAX-fold is the MAX-fold of the
   bounds), then a backward sweep of the longest remaining path.
   Registers cut paths, so each sweep runs once. *)

module Circuit = Spsta_netlist.Circuit
module Cell_library = Spsta_netlist.Cell_library
module Sized_library = Spsta_netlist.Sized_library

type t = {
  circuit : Circuit.t;
  amin : float array;
  amax : float array;
  down : float array;  (* max delay still ahead; -inf when no endpoint is reachable *)
  t_lb : float;
}

let unit_bounds =
  (Spsta_netlist.Cell_library.unit_gate_delay, Spsta_netlist.Cell_library.unit_gate_delay)

let run ?(delay_bounds = fun _ -> unit_bounds) circuit =
  let n = Circuit.num_nets circuit in
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
  let amin = Array.make n 0.0 and amax = Array.make n 0.0 in
  let down = Array.make n neg_infinity in
  List.iter (fun e -> down.(e) <- 0.0) (Circuit.endpoints circuit);
  let csr = Circuit.csr circuit in
  let gates = Array.length csr.Circuit.gate_net in
  for k = 0 to gates - 1 do
    let out = csr.Circuit.gate_net.(k) in
    let lo = ref neg_infinity and hi = ref neg_infinity in
    for j = csr.Circuit.fanin_off.(k) to csr.Circuit.fanin_off.(k + 1) - 1 do
      let i = csr.Circuit.fanin.(j) in
      lo := Float.max !lo amin.(i);
      hi := Float.max !hi amax.(i)
    done;
    amin.(out) <- !lo +. dmin.(out);
    amax.(out) <- !hi +. dmax.(out)
  done;
  for k = gates - 1 downto 0 do
    let out = csr.Circuit.gate_net.(k) in
    if down.(out) <> neg_infinity then begin
      let cand = down.(out) +. dmax.(out) in
      for j = csr.Circuit.fanin_off.(k) to csr.Circuit.fanin_off.(k + 1) - 1 do
        let i = csr.Circuit.fanin.(j) in
        if cand > down.(i) then down.(i) <- cand
      done
    end
  done;
  let t_lb =
    List.fold_left (fun acc e -> Float.max acc amin.(e)) 0.0 (Circuit.endpoints circuit)
  in
  { circuit; amin; amax; down; t_lb }

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
