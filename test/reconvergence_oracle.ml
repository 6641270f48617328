(* The reconvergence pass as it stood before the linear region walk,
   kept verbatim as the oracle the rewrite is checked against: the
   per-stem walk dedupes consumers with [List.mem], orders the visited
   cone with [Array.sort] and recounts branch bits with [popcount].
   Only the module alias and the region type (shared with the library
   so results compare structurally) differ from the original, which
   also ran a post-dominator sweep that the regions and the taint never
   read. *)

module Circuit = Spsta_netlist.Circuit

type region = Spsta_analysis.Reconvergence.region = {
  stem : Circuit.id;
  merge : Circuit.id;
  width : int;
  depth : int;
  gates : int option;
}

type t = {
  taint : Bytes.t;
  stem_mark : Bytes.t;
  regions : region list;
  num_tainted : int;
}

let run ?(region_gate_cap = 64) circuit =
  if region_gate_cap < 0 then invalid_arg "Reconvergence.run: region_gate_cap < 0";
  let n = Circuit.num_nets circuit in
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
  let taint = Bytes.make n '\000' in
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
  { taint; stem_mark; regions; num_tainted = !num_tainted }

let regions t = t.regions
let num_tainted t = t.num_tainted
let is_stem t id = Bytes.get t.stem_mark id = '\001'
let tainted t id = Bytes.get t.taint id = '\001'
