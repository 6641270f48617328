(* Backward observability.  Reverse-topological single sweep: every
   consumer gate is visited before its inputs' facts are read upstream,
   and registers need no transport (flip-flop D nets are themselves
   endpoints), so one round reaches the fixpoint. *)

module Circuit = Spsta_netlist.Circuit

type t = {
  circuit : Circuit.t;
  obs : Bytes.t;  (* constant-aware observability *)
  reach : Bytes.t;  (* structural reachability, the old lint rule *)
  constants : Constprop.t option;
  mutable stats : Dataflow.stats;
}

let is_const t id =
  match t.constants with None -> false | Some c -> Constprop.const_of c id <> None

let transfer t csr k =
  let out = csr.Circuit.gate_net.(k) in
  let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
  let changed = ref false in
  if Bytes.get t.reach out = '\001' then
    for j = i0 to i1 - 1 do
      let i = csr.Circuit.fanin.(j) in
      if Bytes.get t.reach i = '\000' then (
        Bytes.set t.reach i '\001';
        changed := true)
    done;
  (* a constant output transmits nothing: inputs stay unobservable
     through this gate *)
  if Bytes.get t.obs out = '\001' && not (is_const t out) then
    for j = i0 to i1 - 1 do
      let i = csr.Circuit.fanin.(j) in
      if Bytes.get t.obs i = '\000' && not (is_const t i) then (
        Bytes.set t.obs i '\001';
        changed := true)
    done;
  !changed

let boundary _t _circuit = false

let run ?arena ?constants circuit =
  let arena = match arena with Some a -> a | None -> Dataflow.Arena.create circuit in
  let n = Circuit.num_nets circuit in
  let obs = Dataflow.Arena.bytes arena "obs" ~init:'\000' in
  let reach = Dataflow.Arena.bytes arena "reach" ~init:'\000' in
  Bytes.fill obs 0 n '\000';
  Bytes.fill reach 0 n '\000';
  let t =
    {
      circuit;
      obs;
      reach;
      constants;
      stats = { Dataflow.rounds = 0; sweeps = 0; gate_visits = 0 };
    }
  in
  List.iter
    (fun e ->
      Bytes.set reach e '\001';
      if not (is_const t e) then Bytes.set obs e '\001')
    (Circuit.endpoints circuit);
  let module P = struct
    type nonrec t = t

    let name = "observability"
    let direction = `Backward
    let state = t
    let transfer = transfer
    let boundary = boundary
  end in
  t.stats <- Dataflow.run ~max_rounds:1 circuit (module P);
  t

let observable t id = Bytes.get t.obs id = '\001'
let reachable t id = Bytes.get t.reach id = '\001'

let fold_dead t f =
  Array.fold_left
    (fun acc id -> if Bytes.get t.obs id = '\000' then f acc id else acc)
    [] (Circuit.topo_gates t.circuit)

let dead t = List.rev (fold_dead t (fun acc id -> id :: acc))
let num_dead t = List.length (dead t)

let sharpened t =
  List.rev
    (fold_dead t (fun acc id ->
         if Bytes.get t.reach id = '\001' && not (is_const t id) then id :: acc else acc))

let num_sharpened t = List.length (sharpened t)
let stats t = t.stats
