(* Reconvergent-fanout regions: a bounded forward walk from every
   fanout stem tracking which branch reached each net, then the forward
   closure of every remerge net (the taint). *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Circuit_bdd = Spsta_bdd.Circuit_bdd

type region = {
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

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

let run ?(region_gate_cap = 64) circuit =
  if region_gate_cap < 0 then invalid_arg "Reconvergence.run: region_gate_cap < 0";
  let n = Circuit.num_nets circuit in
  let stem_mark = Bytes.make n '\000' in
  let taint = Bytes.make n '\000' in
  let stamp = Array.make n (-1) in
  let mask = Array.make n 0 in
  let max_branches = 62 (* one OCaml int of branch bits *) in
  let branch = Array.make max_branches 0 in
  (* visited nets as packed (level, id) keys, so int order is the
     (level, id) order of the merge tie-break; nets and levels < 2^31 *)
  let walk = Array.make region_gate_cap 0 in
  let id_bits = 31 in
  let id_mask = (1 lsl id_bits) - 1 in
  let regions = ref [] in
  (* fanouts hold gate outputs (level >= 1) and flip-flop outputs
     (level 0); the register boundary cuts the latter *)
  let region_of v =
    let fo = Circuit.fanout circuit v in
    if Array.length fo >= 2 then begin
      (* distinct consumers, deduped through [stamp] under a negative tag
         no walk uses (walk [v] stamps [v]); the [max_branches] smallest
         ids are kept ascending in [branch] and carry the branch bits *)
      let tag = -2 - v in
      let nb = ref 0 in
      for j = 0 to Array.length fo - 1 do
        let s = fo.(j) in
        if stamp.(s) <> tag && Circuit.level circuit s > 0 then begin
          stamp.(s) <- tag;
          if !nb < max_branches || s < branch.(max_branches - 1) then begin
            let p = ref (min !nb (max_branches - 1)) in
            while !p > 0 && branch.(!p - 1) > s do
              branch.(!p) <- branch.(!p - 1);
              decr p
            done;
            branch.(!p) <- s;
            if !nb < max_branches then incr nb
          end
        end
      done;
      if !nb >= 2 then begin
        (* phase 1: BFS over the forward cone up to the cap; once the cap
           overflows nothing further can be visited, so stop *)
        let count = ref (min !nb region_gate_cap) in
        let overflow = ref (!nb > region_gate_cap) in
        for j = 0 to !count - 1 do
          let s = branch.(j) in
          stamp.(s) <- v;
          mask.(s) <- 1 lsl j;
          walk.(j) <- (Circuit.level circuit s lsl id_bits) lor s
        done;
        let head = ref 0 in
        while !head < !count && not !overflow do
          let fo = Circuit.fanout circuit (walk.(!head) land id_mask) in
          incr head;
          for j = 0 to Array.length fo - 1 do
            let s = fo.(j) in
            if stamp.(s) <> v && Circuit.level circuit s > 0 then
              if !count >= region_gate_cap then overflow := true
              else begin
                stamp.(s) <- v;
                mask.(s) <- 0;
                walk.(!count) <- (Circuit.level circuit s lsl id_bits) lor s;
                incr count
              end
          done
        done;
        (* insertion sort: BFS order is already close to level order *)
        for q = 1 to !count - 1 do
          let key = walk.(q) in
          let p = ref q in
          while !p > 0 && walk.(!p - 1) > key do
            walk.(!p) <- walk.(!p - 1);
            decr p
          done;
          walk.(!p) <- key
        done;
        (* phase 2: propagate branch masks in level order — every visited
           predecessor of a net has a strictly lower level, so each net's
           mask is final when it is reached; the first net with two or
           more bits is the merge, and every such net seeds the taint *)
        let merge = ref (-1) in
        for q = 0 to !count - 1 do
          let u = walk.(q) land id_mask in
          let m = mask.(u) in
          if m land (m - 1) <> 0 then begin
            if !merge < 0 then merge := u;
            Bytes.set taint u '\001'
          end;
          let fo = Circuit.fanout circuit u in
          for j = 0 to Array.length fo - 1 do
            let s = fo.(j) in
            if stamp.(s) = v then mask.(s) <- mask.(s) lor m
          done
        done;
        if !merge >= 0 then begin
          Bytes.set stem_mark v '\001';
          let lm = Circuit.level circuit !merge in
          let gates =
            if !overflow then None
            else begin
              (* the nets below the merge level are a prefix of [walk] *)
              let g = ref 0 in
              while walk.(!g) lsr id_bits < lm do
                incr g
              done;
              Some !g
            end
          in
          regions :=
            {
              stem = v;
              merge = !merge;
              width = popcount mask.(!merge);
              depth = lm - Circuit.level circuit v;
              gates;
            }
            :: !regions
        end
      end
    end
  in
  List.iter region_of (Circuit.sources circuit);
  Array.iter region_of (Circuit.topo_gates circuit);
  let regions = List.rev !regions in
  (* taint: forward closure of every remerge net within the
     combinational frame — the nets where eq. 5 independence is
     unsound (under-approximate past the per-region walk cap) *)
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
let num_regions t = List.length t.regions

let is_stem t id = Bytes.get t.stem_mark id = '\001'
let tainted t id = Bytes.get t.taint id = '\001'
let num_tainted t = t.num_tainted

(* Independent (eq. 5) propagation — deliberately the naive rule the
   region detection indicts, for measuring its error against the exact
   BDD probability on the merge nets. *)
let eq5_probs circuit ~p_source =
  let n = Circuit.num_nets circuit in
  let p = Array.make n 0.5 in
  List.iter (fun s -> p.(s) <- p_source s) (Circuit.sources circuit);
  let csr = Circuit.csr circuit in
  Array.iteri
    (fun k out ->
      let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
      let kind = Gate_kind.of_code csr.Circuit.kind_code.(k) in
      let v =
        match kind with
        | Gate_kind.And | Gate_kind.Nand ->
          let acc = ref 1.0 in
          for j = i0 to i1 - 1 do
            acc := !acc *. p.(csr.Circuit.fanin.(j))
          done;
          !acc
        | Gate_kind.Or | Gate_kind.Nor ->
          let acc = ref 1.0 in
          for j = i0 to i1 - 1 do
            acc := !acc *. (1.0 -. p.(csr.Circuit.fanin.(j)))
          done;
          1.0 -. !acc
        | Gate_kind.Xor | Gate_kind.Xnor ->
          let acc = ref 0.0 in
          for j = i0 to i1 - 1 do
            let b = p.(csr.Circuit.fanin.(j)) in
            acc := (!acc *. (1.0 -. b)) +. (b *. (1.0 -. !acc))
          done;
          !acc
        | Gate_kind.Not | Gate_kind.Buf -> p.(csr.Circuit.fanin.(i0))
      in
      p.(out) <- (if Gate_kind.inverting kind then 1.0 -. v else v))
    csr.Circuit.gate_net;
  p

let cross_check ?(p_source = fun _ -> 0.5) ?(max_nodes = 200_000) circuit t =
  if t.regions = [] then []
  else
    match Circuit_bdd.build ~max_nodes circuit with
    | exception Circuit_bdd.Size_limit_exceeded -> []
    | bdd ->
      let src_p = Array.of_list (List.map p_source (Circuit.sources circuit)) in
      let exact = Circuit_bdd.exact_prob_one bdd ~p_source:(fun i -> src_p.(i)) in
      let p = eq5_probs circuit ~p_source in
      List.map (fun r -> (r.merge, p.(r.merge), exact r.merge)) t.regions
