(* Backward observability.  One reverse-topological sweep over the CSR
   gate stream: every consumer gate is visited before its inputs' facts
   are read upstream, and registers need no transport (flip-flop D nets
   are themselves endpoints), so one sweep reaches the fixpoint. *)

module Circuit = Spsta_netlist.Circuit

type t = {
  circuit : Circuit.t;
  obs : Bytes.t;  (* constant-aware observability *)
  reach : Bytes.t;  (* structural reachability, the old lint rule *)
  constants : Constprop.t option;
}

let is_const t id =
  match t.constants with None -> false | Some c -> Constprop.const_of c id <> None

let run ?constants circuit =
  let n = Circuit.num_nets circuit in
  let t =
    { circuit; obs = Bytes.make n '\000'; reach = Bytes.make n '\000'; constants }
  in
  List.iter
    (fun e ->
      Bytes.set t.reach e '\001';
      if not (is_const t e) then Bytes.set t.obs e '\001')
    (Circuit.endpoints circuit);
  let csr = Circuit.csr circuit in
  for k = Array.length csr.Circuit.gate_net - 1 downto 0 do
    let out = csr.Circuit.gate_net.(k) in
    let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
    if Bytes.get t.reach out = '\001' then
      for j = i0 to i1 - 1 do
        Bytes.set t.reach csr.Circuit.fanin.(j) '\001'
      done;
    (* a constant output transmits nothing: inputs stay unobservable
       through this gate *)
    if Bytes.get t.obs out = '\001' && not (is_const t out) then
      for j = i0 to i1 - 1 do
        let i = csr.Circuit.fanin.(j) in
        if Bytes.get t.obs i = '\000' && not (is_const t i) then Bytes.set t.obs i '\001'
      done
  done;
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
