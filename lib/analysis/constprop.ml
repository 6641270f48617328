(* Interval signal probabilities under arbitrary correlation
   (Fréchet–Hoeffding per-gate bounds), with exact 0/1 endpoints acting
   as the constant lattice.  Forward sweeps over the CSR gate stream;
   between sweeps the register boundary narrows unpinned flip-flop
   outputs by intersection with their D interval. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind

type t = {
  circuit : Circuit.t;
  lo : float array;
  hi : float array;
}

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

(* Interval XOR under arbitrary correlation: for point marginals p, q
   the reachable set is [|p-q|, min(p+q, 2-p-q)]; minimise/maximise over
   the operand boxes. *)
let xor_step la ha lb hb =
  let l =
    if la <= hb && lb <= ha then 0.0 else if la > hb then la -. hb else lb -. ha
  in
  let h =
    if la +. lb <= 1.0 && 1.0 <= ha +. hb then 1.0
    else Float.min (ha +. hb) (2.0 -. la -. lb)
  in
  (l, h)

(* [scratch] is the fan-in dedupe workspace, of length max_fanin *)
let transfer csr scratch lo_a hi_a k =
  let out = csr.Circuit.gate_net.(k) in
  let i0 = csr.Circuit.fanin_off.(k) and i1 = csr.Circuit.fanin_off.(k + 1) in
  let kind = Gate_kind.of_code csr.Circuit.kind_code.(k) in
  let l, h =
    match kind with
    | Gate_kind.Buf | Gate_kind.Not ->
      let i = csr.Circuit.fanin.(i0) in
      (lo_a.(i), hi_a.(i))
    | Gate_kind.And | Gate_kind.Nand | Gate_kind.Or | Gate_kind.Nor ->
      (* idempotent: fold each distinct input once *)
      let m = ref 0 in
      for j = i0 to i1 - 1 do
        let id = csr.Circuit.fanin.(j) in
        let dup = ref false in
        for s = 0 to !m - 1 do
          if scratch.(s) = id then dup := true
        done;
        if not !dup then (
          scratch.(!m) <- id;
          incr m)
      done;
      let conj = kind = Gate_kind.And || kind = Gate_kind.Nand in
      let l = ref (if conj then 1.0 else 0.0) in
      let h = ref !l in
      for s = 0 to !m - 1 do
        let id = scratch.(s) in
        if conj then (
          l := Float.max 0.0 (!l +. lo_a.(id) -. 1.0);
          h := Float.min !h hi_a.(id))
        else (
          l := Float.max !l lo_a.(id);
          h := Float.min 1.0 (!h +. hi_a.(id)))
      done;
      (!l, !h)
    | Gate_kind.Xor | Gate_kind.Xnor ->
      (* a XOR a cancels: keep inputs of odd multiplicity *)
      let m = ref 0 in
      for j = i0 to i1 - 1 do
        let id = csr.Circuit.fanin.(j) in
        let pos = ref (-1) in
        for s = 0 to !m - 1 do
          if scratch.(s) = id then pos := s
        done;
        if !pos >= 0 then (
          scratch.(!pos) <- scratch.(!m - 1);
          decr m)
        else (
          scratch.(!m) <- id;
          incr m)
      done;
      let l = ref 0.0 and h = ref 0.0 in
      for s = 0 to !m - 1 do
        let id = scratch.(s) in
        let l', h' = xor_step !l !h lo_a.(id) hi_a.(id) in
        l := l';
        h := h'
      done;
      (!l, !h)
  in
  let l, h = if Gate_kind.inverting kind then (1.0 -. h, 1.0 -. l) else (l, h) in
  lo_a.(out) <- clamp01 l;
  hi_a.(out) <- clamp01 h

(* The steady-state one-probability of a flip-flop output equals its D
   net's, so Q may be narrowed by intersection.  An empty intersection
   can only arise from rounding fuzz; keep the old interval then.  The
   tolerance keeps sequential feedback from scheduling rounds for
   sub-ulp shrinkage ([max_rounds] still backstops). *)
let narrow_eps = 1e-12

let max_rounds = 64

let boundary circuit pin lo_a hi_a =
  let changed = ref false in
  List.iter
    (fun (q, d) ->
      if Bytes.get pin q = '\000' then (
        let lo = Float.max lo_a.(q) lo_a.(d) and hi = Float.min hi_a.(q) hi_a.(d) in
        if lo <= hi && (lo -. lo_a.(q) > narrow_eps || hi_a.(q) -. hi > narrow_eps) then (
          lo_a.(q) <- lo;
          hi_a.(q) <- hi;
          changed := true)))
    (Circuit.dffs circuit);
  !changed

let run ?p_source circuit =
  let n = Circuit.num_nets circuit in
  let lo = Array.make n 0.0 and hi = Array.make n 1.0 in
  (* sources pinned by p_source: the boundary leaves them alone *)
  let pin = Bytes.make n '\000' in
  (match p_source with
  | None -> ()
  | Some f ->
    List.iter
      (fun s ->
        let p = f s in
        if not (Float.is_finite p && 0.0 <= p && p <= 1.0) then
          invalid_arg
            (Printf.sprintf "Constprop.run: p_source %g outside [0,1] for net %s" p
               (Circuit.net_name circuit s));
        lo.(s) <- p;
        hi.(s) <- p;
        Bytes.set pin s '\001')
      (Circuit.sources circuit));
  let csr = Circuit.csr circuit in
  let scratch = Array.make (max 1 csr.Circuit.max_fanin) 0 in
  (* one topological sweep settles the combinational frame; another
     round follows while the boundary narrows some flip-flop output *)
  let rec rounds r =
    for k = 0 to Array.length csr.Circuit.gate_net - 1 do
      transfer csr scratch lo hi k
    done;
    if boundary circuit pin lo hi && r < max_rounds then rounds (r + 1)
  in
  rounds 1;
  { circuit; lo; hi }

let lo t id = t.lo.(id)
let hi t id = t.hi.(id)
let interval t id = (t.lo.(id), t.hi.(id))

let const_of t id =
  if t.hi.(id) = 0.0 then Some false else if t.lo.(id) = 1.0 then Some true else None

let constants t =
  Array.fold_right
    (fun id acc -> if const_of t id <> None then id :: acc else acc)
    (Circuit.topo_gates t.circuit) []

let num_constants t =
  Array.fold_left
    (fun acc id -> if const_of t id <> None then acc + 1 else acc)
    0 (Circuit.topo_gates t.circuit)

let num_bounded t =
  let n = ref 0 in
  for id = 0 to Array.length t.lo - 1 do
    if t.hi.(id) -. t.lo.(id) < 1.0 then incr n
  done;
  !n
