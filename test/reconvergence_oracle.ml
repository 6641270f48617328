(* The reconvergence pass as it stood before the linear region walk,
   kept verbatim as the oracle the rewrite is checked against: the
   per-stem walk dedupes consumers with [List.mem], orders the visited
   cone with [Array.sort] and recounts branch bits with [popcount].
   Only the module aliases and the region type (shared with the library
   so results compare structurally) differ from the original. *)

module Circuit = Spsta_netlist.Circuit
module Dataflow = Spsta_analysis.Dataflow

type region = Spsta_analysis.Reconvergence.region = {
  stem : Circuit.id;
  merge : Circuit.id;
  width : int;
  depth : int;
  gates : int option;
}

type state = {
  circuit : Circuit.t;
  sink : int;  (* = num_nets; ord.(sink) is the maximum *)
  ord : int array;  (* length num_nets + 1: sources, then topo gates, then sink *)
  ipdom : int array;  (* per net; sink for "post-dominated only by the sink",
                         -1 for nets that reach no endpoint *)
  is_endpoint : Bytes.t;
}

type t = {
  st : state;
  taint : Bytes.t;
  stem_mark : Bytes.t;
  regions : region list;
  num_tainted : int;
  stats : Dataflow.stats;
}

(* Walk both ipdom chains up (toward the sink, increasing ord) to their
   nearest common ancestor.  Chains of live nets always terminate at the
   sink, whose ord is the global maximum. *)
let intersect st a b =
  let a = ref a and b = ref b in
  while !a <> !b do
    while st.ord.(!a) < st.ord.(!b) do
      a := st.ipdom.(!a)
    done;
    while st.ord.(!b) < st.ord.(!a) do
      b := st.ipdom.(!b)
    done
  done;
  !a

(* Live combinational successors of a net: consumer gate outputs (the
   register boundary cuts flip-flop consumers) plus the virtual sink for
   endpoints.  Dead successors (no path to any endpoint) are skipped —
   their paths can never remerge with observable logic. *)
let fold_succ st v f acc =
  let acc = ref acc in
  Array.iter
    (fun s ->
      match Circuit.driver st.circuit s with
      | Circuit.Dff_output _ -> ()
      | _ -> if st.ipdom.(s) <> -1 then acc := f !acc s)
    (Circuit.fanout st.circuit v);
  if Bytes.get st.is_endpoint v = '\001' then acc := f !acc st.sink;
  !acc

let compute_ipdom st v =
  fold_succ st v (fun acc s -> if acc = -1 then s else intersect st acc s) (-1)

let transfer st csr k =
  let out = csr.Circuit.gate_net.(k) in
  let ip = compute_ipdom st out in
  if ip <> st.ipdom.(out) then (
    st.ipdom.(out) <- ip;
    true)
  else false

(* Sources are not part of the gate stream; their successors are all
   gates (already final after the sweep), so finish them here.  Nothing
   crosses a register, hence no further round. *)
let boundary st circuit =
  List.iter (fun s -> st.ipdom.(s) <- compute_ipdom st s) (Circuit.sources circuit);
  false

let run ?arena ?(region_gate_cap = 64) circuit =
  if region_gate_cap < 0 then invalid_arg "Reconvergence.run: region_gate_cap < 0";
  let arena = match arena with Some a -> a | None -> Dataflow.Arena.create circuit in
  let n = Circuit.num_nets circuit in
  let sink = n in
  let ord = Array.make (n + 1) 0 in
  let next = ref 0 in
  List.iter
    (fun s ->
      ord.(s) <- !next;
      incr next)
    (Circuit.sources circuit);
  Array.iter
    (fun g ->
      ord.(g) <- !next;
      incr next)
    (Circuit.topo_gates circuit);
  ord.(sink) <- n;
  let ipdom = Dataflow.Arena.ints arena "pdom" ~init:(-1) in
  Array.fill ipdom 0 n (-1);
  let is_endpoint = Bytes.make n '\000' in
  List.iter (fun e -> Bytes.set is_endpoint e '\001') (Circuit.endpoints circuit);
  let st = { circuit; sink; ord; ipdom; is_endpoint } in
  let module P = struct
    type t = state

    let name = "reconvergence"
    let direction = `Backward
    let state = st
    let transfer = transfer
    let boundary = boundary
  end in
  let stats = Dataflow.run ~max_rounds:1 circuit (module P) in
  (* Region detection: a bounded forward walk from each stem tracking
     which branch reached each net.  The ipdom chain alone misses
     partial reconvergence — a stem with extra diverging fanout has
     ipdom = sink even when two of its branches remerge a gate away,
     and partial remerges are exactly where eq. 5 correlation damage
     happens — so regions come from the walk while the ipdom chain
     keeps providing the supergate grouping ({!merge_of}). *)
  let stem_mark = Bytes.make n '\000' in
  let taint_seed = Bytes.make n '\000' in
  let stamp = Array.make n (-1) in
  let mask = Array.make n 0 in
  let visited = Array.make (region_gate_cap + 1) 0 in
  let idx = ref 0 in
  let max_branches = 62 (* one OCaml int of branch bits *) in
  let comb_succs v =
    (* distinct combinational consumer output nets, ascending id *)
    Array.fold_left
      (fun acc s ->
        match Circuit.driver circuit s with
        | Circuit.Dff_output _ -> acc
        | _ -> if List.mem s acc then acc else s :: acc)
      [] (Circuit.fanout circuit v)
    |> List.sort compare
  in
  let by_level a b =
    match compare (Circuit.level circuit a) (Circuit.level circuit b) with
    | 0 -> compare a b
    | c -> c
  in
  let region_of v =
    match comb_succs v with
    | [] | [ _ ] -> None
    | branches ->
      let i = !idx in
      incr idx;
      let count = ref 0 and overflow = ref false in
      let visit s bit =
        if stamp.(s) <> i then
          if !count >= region_gate_cap then overflow := true
          else (
            stamp.(s) <- i;
            mask.(s) <- bit;
            visited.(!count) <- s;
            incr count)
      in
      List.iteri (fun j s -> if j < max_branches then visit s (1 lsl j)) branches;
      (* phase 1: collect the forward cone up to the cap *)
      let head = ref 0 in
      while !head < !count do
        let u = visited.(!head) in
        incr head;
        Array.iter
          (fun s ->
            match Circuit.driver circuit s with
            | Circuit.Dff_output _ -> ()
            | _ -> visit s 0)
          (Circuit.fanout circuit u)
      done;
      (* phase 2: propagate branch masks in level order — every visited
         predecessor of a net has a strictly lower level, so each net's
         mask is final when it is expanded *)
      let order = Array.sub visited 0 !count in
      Array.sort by_level order;
      Array.iter
        (fun u ->
          Array.iter
            (fun s ->
              match Circuit.driver circuit s with
              | Circuit.Dff_output _ -> ()
              | _ -> if stamp.(s) = i then mask.(s) <- mask.(s) lor mask.(u))
            (Circuit.fanout circuit u))
        order;
      let popcount m =
        let c = ref 0 and m = ref m in
        while !m <> 0 do
          m := !m land (!m - 1);
          incr c
        done;
        !c
      in
      let merge =
        Array.fold_left
          (fun acc u -> if acc = -1 && popcount mask.(u) >= 2 then u else acc)
          (-1) order
      in
      if merge = -1 then None
      else (
        Bytes.set stem_mark v '\001';
        Array.iter (fun u -> if popcount mask.(u) >= 2 then Bytes.set taint_seed u '\001') order;
        let lm = Circuit.level circuit merge in
        let gates =
          if !overflow then None
          else
            Some
              (Array.fold_left
                 (fun acc u -> if Circuit.level circuit u < lm then acc + 1 else acc)
                 0 order)
        in
        Some
          {
            stem = v;
            merge;
            width = popcount mask.(merge);
            depth = lm - Circuit.level circuit v;
            gates;
          })
  in
  let regions =
    List.filter_map region_of (Circuit.sources circuit)
    @ List.filter_map region_of (Array.to_list (Circuit.topo_gates circuit))
  in
  (* taint: forward closure of every remerge net within the
     combinational frame — the nets where eq. 5 independence is
     unsound (under-approximate past the per-region walk cap) *)
  let taint = Dataflow.Arena.bytes arena "taint" ~init:'\000' in
  Bytes.blit taint_seed 0 taint 0 n;
  let csr = Circuit.csr circuit in
  let num_tainted = ref 0 in
  Array.iteri
    (fun k out ->
      if Bytes.get taint out = '\000' then (
        let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
        let hit = ref false in
        for j = i0 to i1 - 1 do
          if Bytes.get taint csr.Circuit.fanin.(j) = '\001' then hit := true
        done;
        if !hit then Bytes.set taint out '\001');
      if Bytes.get taint out = '\001' then incr num_tainted)
    csr.Circuit.gate_net;
  { st; taint; stem_mark; regions; num_tainted = !num_tainted; stats }

let regions t = t.regions
let num_tainted t = t.num_tainted
let is_stem t id = Bytes.get t.stem_mark id = '\001'
let tainted t id = Bytes.get t.taint id = '\001'

let merge_of t id =
  let m = t.st.ipdom.(id) in
  if m = -1 || m = t.st.sink then None else Some m
