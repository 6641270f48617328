module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Timing_rule = Spsta_logic.Timing_rule
module Mis_model = Spsta_logic.Mis_model
module Mixture = Spsta_dist.Mixture
module Normal = Spsta_dist.Normal
module Clark = Spsta_dist.Clark
module Flat = Spsta_engine.Flat
module Propagate = Spsta_engine.Propagate
module FA = Float.Array

(* Flat struct-of-arrays SPSTA moment kernel: the WEIGHTED SUM sweep of
   [Analyzer.Make (Top.Moment_backend)] (paper §3.4, eq. 8/11) over
   preallocated float arrays instead of per-term mixture lists.

   Every step replays the record path's operation order — the
   depth-first enumeration of input values, the left-to-right Clark
   folds through [Clark.max_mv]/[min_mv], the accumulation order of
   probabilities and components, [Mixture.compact_slots] and the
   [Mixture.moments_*] cores the list API itself runs through — so
   results are bit-identical to the record engine.  The difference is
   where the work goes: each operand's normalised moment match is
   computed once per gate and direction (the record path recomputes it
   inside every enumerated term), the four-value output of each input
   combination is a byte in a truth table built once per (base kind,
   arity), and the sweep allocates nothing per term: what remains is the
   caller's delay hook and the boxed floats of [Special]'s pdf/cdf
   inside each Clark step. *)

let max_components = Top.moment_max_components
let eps = Mixture.weight_epsilon

(* One direction's components: net [id] owns triples [off.(id)] ..
   [off.(id + 1) - 1] of [slots] (weight, mu, sigma each), of which the
   first [cnt.(id)] are in use.  Every net owns its slice, so the gates
   of one level write disjoint memory and may run in parallel. *)
type arena = { off : int array; cnt : int array; slots : floatarray }

type t = {
  circuit : Circuit.t;
  p_zero : floatarray;
  p_one : floatarray;
  p_rise : floatarray;
  p_fall : floatarray;
  rise : arena;
  fall : arena;
}

type params = {
  source : Circuit.id -> Four_value.t * Mixture.t * Mixture.t;
  delay : Circuit.id -> Flat.rf_buf -> unit;
  delay_sigma : float;
  mis : Mis_model.t option;
  max_enumerated_fanin : int;
  check : (t -> Circuit.id -> (string * string) option) option;
}

(* ------------------------------------------------------------------ *)
(* Truth tables.  Value codes are positions in [Value4.all]: 0 zero,
   1 one, 2 rising, 3 falling.  Row [r] of an arity-[k] table holds the
   output code for the input combination whose base-4 digits (input 0
   most significant) are the input codes — the order the depth-first
   enumeration visits rows in. *)

let value_of_code = Array.of_list Value4.all

let code_of_value = function
  | Value4.Zero -> 0
  | Value4.One -> 1
  | Value4.Rising -> 2
  | Value4.Falling -> 3

(* the non-inverting associative kind the engine enumerates; NOT/BUF
   (-1) pass their operand through *)
let base_index = function
  | Gate_kind.And | Gate_kind.Nand -> 0
  | Gate_kind.Or | Gate_kind.Nor -> 1
  | Gate_kind.Xor | Gate_kind.Xnor -> 2
  | Gate_kind.Not | Gate_kind.Buf -> -1

let base_kinds = [| Gate_kind.And; Gate_kind.Or; Gate_kind.Xor |]

type table = {
  rows : Bytes.t;
  sw_off : int array;
  sw : int array;
      (** the switching inputs of row [r], in input order, are
          [sw.(sw_off.(r)) .. sw.(sw_off.(r + 1) - 1)], each as the
          offset [4j + 2d] of input [j]'s direction-[d] matched normal
          (d = 0 rising, 1 falling) in the operand buffer *)
  n_rise : int;  (** rows whose output rises *)
  n_fall : int;
  rise_min : bool;  (** rising outputs fold under MIN (else MAX) *)
  fall_min : bool;
}

let build_table base arity =
  let n = 1 lsl (2 * arity) in
  let rows = Bytes.create n in
  let values = Array.make arity Value4.Zero in
  let sw_off = Array.make (n + 1) 0 and sw = ref [] in
  let n_rise = ref 0 and n_fall = ref 0 in
  for row = 0 to n - 1 do
    let code j = (row lsr (2 * (arity - 1 - j))) land 3 in
    for j = 0 to arity - 1 do
      values.(j) <- value_of_code.(code j)
    done;
    let out = Gate_kind.eval4 base (Array.to_list values) in
    let switching = ref 0 in
    (match out with
    | Value4.Rising | Value4.Falling ->
      if Value4.equal out Value4.Rising then incr n_rise else incr n_fall;
      for j = 0 to arity - 1 do
        if code j >= 2 then begin
          sw := ((4 * j) + (2 * (code j - 2))) :: !sw;
          incr switching
        end
      done
    | Value4.Zero | Value4.One -> ());
    sw_off.(row + 1) <- sw_off.(row) + !switching;
    Bytes.set rows row (Char.chr (code_of_value out))
  done;
  let is_min out = Timing_rule.equal (Timing_rule.for_output base out) Timing_rule.Min in
  { rows; sw_off; sw = Array.of_list (List.rev !sw); n_rise = !n_rise; n_fall = !n_fall;
    rise_min = is_min Value4.Rising; fall_min = is_min Value4.Falling }

let no_table =
  { rows = Bytes.empty; sw_off = [||]; sw = [||]; n_rise = 0; n_fall = 0; rise_min = false;
    fall_min = false }

(* [tables.(base).(arity)], built for every (base, arity) some gate of
   the circuit enumerates: arity <= max_enumerated_fanin directly,
   arity 2 for the pairwise fold above it *)
let build_tables circuit ~mef =
  let csr = Circuit.csr circuit in
  let tables = Array.init 3 (fun _ -> Array.make (max 3 (csr.Circuit.max_fanin + 1)) no_table) in
  Array.iteri
    (fun k code ->
      let b = base_index (Gate_kind.of_code code) in
      let arity = csr.Circuit.fanin_off.(k + 1) - csr.Circuit.fanin_off.(k) in
      let enumerated = if arity <= mef then arity else 2 in
      if b >= 0 && tables.(b).(enumerated) == no_table then
        tables.(b).(enumerated) <- build_table base_kinds.(b) enumerated)
    csr.Circuit.kind_code;
  tables

(* ------------------------------------------------------------------ *)
(* Layout.  A net's slice holds at most min(16, rows of its table whose
   output goes that way) components: every enumerated term contributes
   at most one, and compaction caps the rest.  NOT/BUF take their
   operand's capacity, swapped for NOT; sources hold one.  [prev] (an earlier state) raises
   each capacity to the count that net already holds, so its slices
   can be copied over even if a gate was retyped since. *)

let layout circuit tables ~mef ~prev =
  let csr = Circuit.csr circuit in
  let n = Circuit.num_nets circuit in
  let held dir id = match prev with Some p -> (dir p).cnt.(id) | None -> 0 in
  let prev_rise p = p.rise and prev_fall p = p.fall in
  let cap_r = Array.make n 0 and cap_f = Array.make n 0 in
  List.iter
    (fun s ->
      cap_r.(s) <- max 1 (held prev_rise s);
      cap_f.(s) <- max 1 (held prev_fall s))
    (Circuit.sources circuit);
  Array.iteri
    (fun k g ->
      let off = csr.Circuit.fanin_off.(k) in
      let arity = csr.Circuit.fanin_off.(k + 1) - off in
      let kind = Gate_kind.of_code csr.Circuit.kind_code.(k) in
      let b = base_index kind in
      let operand = csr.Circuit.fanin.(off) in
      let r, f =
        if b < 0 then (cap_r.(operand), cap_f.(operand))
        else begin
          let tab = tables.(b).(if arity <= mef then arity else 2) in
          (min max_components tab.n_rise, min max_components tab.n_fall)
        end
      in
      let r, f = if Gate_kind.inverting kind then (f, r) else (r, f) in
      cap_r.(g) <- max r (held prev_rise g);
      cap_f.(g) <- max f (held prev_fall g))
    csr.Circuit.gate_net;
  let arena caps =
    let off = Array.make (n + 1) 0 in
    for id = 0 to n - 1 do
      off.(id + 1) <- off.(id) + caps.(id)
    done;
    { off; cnt = Array.make n 0; slots = FA.create (3 * off.(n)) }
  in
  (arena cap_r, arena cap_f)

(* ------------------------------------------------------------------ *)
(* The per-gate kernel. *)

type cfg = {
  params : params;
  mis_fm1 : floatarray;
      (** [factor - 1] of the MIS model at [rule * mis_stride + k] (rule
          0 = MAX, 1 = MIN; [k] simultaneous inputs); empty without MIS *)
  mis_stride : int;
}

module K = struct
  type nonrec t = {
    st : t;
    cfg : cfg;
    tables : table array array;
    gate_net : int array;
    kind_code : int array;
    fanin_off : int array;
    fanin : int array;
    max_arity : int;
  }

  (* Per-worker buffers.  Operand [j] of the enumeration occupies
     [op_p.(4j .. 4j+3)] (its four probabilities), [op_norm.(4j ..
     4j+3)] (the moment-matched normal of its normalised rise and fall
     t.o.p.: mu, sigma, mu, sigma) and [op_state.[2j]], [op_state.[2j+1]]
     (rise, fall: 0 = zero mass, a term switching it is dropped; 1 =
     usable).  [out_r]/[out_f] collect the enumerated rise/fall components
     ([n_r]/[n_f] of them) and grow on demand; [p0] .. [pf] hold the
     enumerated output probabilities (one slot each). *)
  type scratch = {
    mv : Clark.mv;
    mb : Mixture.moments_buf;
    db : Flat.rf_buf;
    op_p : floatarray;
    op_norm : floatarray;
    op_state : Bytes.t;
    digit : int array;
    rowst : int array;
    wst : floatarray;
    mutable out_r : floatarray;
    mutable out_f : floatarray;
    mutable n_r : int;
    mutable n_f : int;
    p0 : floatarray;
    p1 : floatarray;
    pr : floatarray;
    pf : floatarray;
  }

  let circuit t = t.st.circuit

  let scratch t =
    let k = t.max_arity in
    { mv = Clark.mv_create (); mb = Mixture.moments_buf (); db = Flat.rf_buf ();
      op_p = FA.make (4 * k) 0.0; op_norm = FA.make (4 * k) 0.0;
      op_state = Bytes.make (2 * k) '\000'; digit = Array.make (k + 1) 0;
      rowst = Array.make (k + 1) 0; wst = FA.make (k + 1) 0.0;
      out_r = FA.create (3 * max_components); out_f = FA.create (3 * max_components); n_r = 0;
      n_f = 0; p0 = FA.make 1 0.0; p1 = FA.make 1 0.0; pr = FA.make 1 0.0; pf = FA.make 1 0.0 }

  (* The moment-matched normal of a slice's normalised mixture, exactly
     as the record path gets it: [normalised] (scale by 1/w when w > 0),
     the zero-mass test on the normalised total, then [as_normal]. *)
  let match_slice s slots lo cnt ~norm_at ~state_at =
    let w = ref 0.0 in
    for c = lo to lo + cnt - 1 do
      w := !w +. FA.get slots (3 * c)
    done;
    let w = !w in
    let mb = s.mb in
    Mixture.moments_clear mb;
    let k = if w > 0.0 then 1.0 /. w else 1.0 in
    (* [Mixture.scale] empties the mixture for a negligible factor *)
    if not (w > 0.0 && k <= eps) then
      for c = lo to lo + cnt - 1 do
        let j = 3 * c in
        mb.Mixture.mb_weight <- (if w > 0.0 then FA.get slots j *. k else FA.get slots j);
        mb.Mixture.mb_mu <- FA.get slots (j + 1);
        mb.Mixture.mb_sigma <- FA.get slots (j + 2);
        Mixture.moments_add mb
      done;
    (* a positive normalised total is ~1, never at or below [eps], so
       [as_normal] always has a normal to match *)
    if mb.Mixture.mb_total <= 0.0 then Bytes.set s.op_state state_at '\000'
    else begin
      Mixture.moments_finish mb;
      FA.set s.op_norm norm_at mb.Mixture.mb_mu;
      FA.set s.op_norm (norm_at + 1) mb.Mixture.mb_sigma;
      Bytes.set s.op_state state_at '\001'
    end

  let load_operand st s j id =
    let p = s.op_p and q = 4 * j in
    FA.set p q (FA.get st.p_zero id);
    FA.set p (q + 1) (FA.get st.p_one id);
    FA.set p (q + 2) (FA.get st.p_rise id);
    FA.set p (q + 3) (FA.get st.p_fall id);
    match_slice s st.rise.slots st.rise.off.(id) st.rise.cnt.(id) ~norm_at:q ~state_at:(2 * j);
    match_slice s st.fall.slots st.fall.off.(id) st.fall.cnt.(id) ~norm_at:(q + 2)
      ~state_at:((2 * j) + 1)

  (* the previous pairwise-fold result becomes operand 0 *)
  let load_accumulated s =
    FA.set s.op_p 0 (FA.get s.p0 0);
    FA.set s.op_p 1 (FA.get s.p1 0);
    FA.set s.op_p 2 (FA.get s.pr 0);
    FA.set s.op_p 3 (FA.get s.pf 0);
    match_slice s s.out_r 0 s.n_r ~norm_at:0 ~state_at:0;
    match_slice s s.out_f 0 s.n_f ~norm_at:2 ~state_at:1

  (* the next free output triple of a direction, growing its buffer *)
  let grow o n =
    let o' = FA.create (2 * FA.length o) in
    FA.blit o 0 o' 0 (3 * n);
    o'

  let reserve s ~rising =
    if rising then begin
      let n = s.n_r in
      if 3 * (n + 1) > FA.length s.out_r then s.out_r <- grow s.out_r n;
      s.n_r <- n + 1;
      n
    end
    else begin
      let n = s.n_f in
      if 3 * (n + 1) > FA.length s.out_f then s.out_f <- grow s.out_f n;
      s.n_f <- n + 1;
      n
    end

  (* Eq. 11 over the [arity] loaded operands: visit every input
     combination of positive probability depth-first (input 0 outermost,
     values in [Value4.all] order), accumulate steady outputs into the
     zero/one probabilities and append one component per transitioning
     term: the Clark MIN/MAX fold of the switching operands' matched
     normals, MIS-shifted, weighted by the term's probability.  Then
     normalise the probabilities and compact each direction — the
     record path's [enumerate_gate], step for step.  Indices below are
     in range by construction (rows < 4^arity, switch offsets < 4 *
     arity, depths <= arity), hence the unchecked accesses. *)
  let enumerate t s (tab : table) arity ~inverting =
    let op_p = s.op_p and op_norm = s.op_norm and op_state = s.op_state in
    let digit = s.digit and rowst = s.rowst and wst = s.wst in
    let rows = tab.rows and sw_off = tab.sw_off and sw = tab.sw and mv = s.mv in
    let mis = FA.length t.cfg.mis_fm1 > 0 in
    mv.Clark.mv_cov <- 0.0;
    s.n_r <- 0;
    s.n_f <- 0;
    let p0 = ref 0.0 and p1 = ref 0.0 and rmass = ref 0.0 and fmass = ref 0.0 in
    FA.set wst 0 1.0;
    rowst.(0) <- 0;
    digit.(0) <- -1;
    let last = arity - 1 in
    let depth = ref 0 in
    while !depth >= 0 do
      let i = !depth in
      let q = 4 * i in
      let v = ref (Array.unsafe_get digit i + 1) in
      while !v < 4 && not (FA.unsafe_get op_p (q + !v) > 0.0) do
        incr v
      done;
      if !v = 4 then depth := i - 1
      else begin
        Array.unsafe_set digit i !v;
        let w = FA.unsafe_get wst i *. FA.unsafe_get op_p (q + !v) in
        let row = (Array.unsafe_get rowst i * 4) + !v in
        if w <= 0.0 then ()
        else if i < last then begin
          FA.unsafe_set wst (i + 1) w;
          Array.unsafe_set rowst (i + 1) row;
          Array.unsafe_set digit (i + 1) (-1);
          depth := i + 1
        end
        else
          (* a leaf: one input combination, handled in place *)
          match Bytes.unsafe_get rows row with
          | '\000' -> p0 := !p0 +. w
          | '\001' -> p1 := !p1 +. w
          | code ->
            let rising = code = '\002' in
            let lo = Array.unsafe_get sw_off row and hi = Array.unsafe_get sw_off (row + 1) in
            (* a switching operand whose t.o.p. has zero mass drops the
               whole term (its weight is absorbed by the renormalisation) *)
            let dropped = ref false in
            for x = lo to hi - 1 do
              if Bytes.unsafe_get op_state (Array.unsafe_get sw x lsr 1) = '\000' then
                dropped := true
            done;
            if not !dropped then begin
              let use_min = if rising then tab.rise_min else tab.fall_min in
              let x0 = Array.unsafe_get sw lo in
              let mu = ref (FA.unsafe_get op_norm x0) in
              let sigma = ref (FA.unsafe_get op_norm (x0 + 1)) in
              for x = lo + 1 to hi - 1 do
                (* [Clark.max_normal]/[min_normal] at float level *)
                let y = Array.unsafe_get sw x in
                let osigma = FA.unsafe_get op_norm (y + 1) in
                mv.Clark.mv_mean <- !mu;
                mv.Clark.mv_var <- !sigma *. !sigma;
                mv.Clark.mv_mean2 <- FA.unsafe_get op_norm y;
                mv.Clark.mv_var2 <- osigma *. osigma;
                if use_min then Clark.min_mv mv else Clark.max_mv mv;
                mu := mv.Clark.mv_mean;
                sigma := sqrt mv.Clark.mv_var
              done;
              if mis then begin
                (* MIS: the delay of the gate's own output direction,
                   scaled by the term's simultaneity *)
                let final_rising = if inverting then not rising else rising in
                let d = if final_rising then s.db.Flat.rise_mu else s.db.Flat.fall_mu in
                let rule = if use_min then 1 else 0 in
                let extra = d *. FA.get t.cfg.mis_fm1 ((rule * t.cfg.mis_stride) + hi - lo) in
                if not (extra = 0.0) then mu := !mu +. extra
              end;
              (* [Mixture.scale] drops a negligible-weight contribution,
                 but its mass still counts *)
              if not (w <= eps) then begin
                let slot = 3 * reserve s ~rising in
                let o = if rising then s.out_r else s.out_f in
                FA.unsafe_set o slot w;
                FA.unsafe_set o (slot + 1) !mu;
                FA.unsafe_set o (slot + 2) !sigma
              end;
              if rising then rmass := !rmass +. w else fmass := !fmass +. w
            end
      end
    done;
    let total = !p0 +. !p1 +. !rmass +. !fmass in
    (* [Four_value.make]'s clamp [Float.max x 0.0], spelled out so the
       floats stay unboxed: NaN passes through, -0.0 becomes 0.0 *)
    let x = !p0 /. total in
    FA.set s.p0 0 (if x <> x then x else if x > 0.0 then x else 0.0);
    let x = !p1 /. total in
    FA.set s.p1 0 (if x <> x then x else if x > 0.0 then x else 0.0);
    let x = !rmass /. total in
    FA.set s.pr 0 (if x <> x then x else if x > 0.0 then x else 0.0);
    let x = !fmass /. total in
    FA.set s.pf 0 (if x <> x then x else if x > 0.0 then x else 0.0);
    s.n_r <- Mixture.compact_slots s.mb s.out_r ~off:0 ~len:s.n_r ~max_components;
    s.n_f <- Mixture.compact_slots s.mb s.out_f ~off:0 ~len:s.n_f ~max_components

  (* Write [cnt] triples of [src] from triple [lo] into net [g]'s
     [rise]/fall slice, adding the gate delay: a normal convolution when
     [delay_sigma > 0], else a shift (skipped for a zero delay). *)
  let write_dir t s ~rise g src lo cnt =
    let a = if rise then t.st.rise else t.st.fall in
    let base = a.off.(g) in
    if cnt > a.off.(g + 1) - base then invalid_arg "Moment_kernel: slice capacity exceeded";
    let d = if rise then s.db.Flat.rise_mu else s.db.Flat.fall_mu in
    let sigma = t.cfg.params.delay_sigma in
    let slots = a.slots in
    for c = 0 to cnt - 1 do
      let i = 3 * (lo + c) and o = 3 * (base + c) in
      let mu = FA.get src (i + 1) and sg = FA.get src (i + 2) in
      FA.set slots o (FA.get src i);
      if sigma > 0.0 then begin
        FA.set slots (o + 1) (mu +. d);
        FA.set slots (o + 2) (sqrt ((sg *. sg) +. (sigma *. sigma)))
      end
      else begin
        FA.set slots (o + 1) (if d = 0.0 then mu else mu +. d);
        FA.set slots (o + 2) sg
      end
    done;
    a.cnt.(g) <- cnt

  (* net [g]'s probabilities: zero, one, rise, fall from [p0] .. [pf]
     at index [i]; inversion swaps 0/1 and rise/fall *)
  let set_probs st g ~inverting p0 p1 pr pf i =
    FA.set st.p_zero g (FA.get (if inverting then p1 else p0) i);
    FA.set st.p_one g (FA.get (if inverting then p0 else p1) i);
    FA.set st.p_rise g (FA.get (if inverting then pf else pr) i);
    FA.set st.p_fall g (FA.get (if inverting then pr else pf) i)

  let check t id =
    match t.cfg.params.check with
    | None -> ()
    | Some f -> (
      match f t.st id with
      | None -> ()
      | Some (rule, message) -> Propagate.Sanitize.fail ~circuit:t.st.circuit id ~rule ~message)

  let write_list (a : arena) id m =
    let cs = Mixture.components m in
    let base = a.off.(id) in
    if List.length cs > a.off.(id + 1) - base then
      invalid_arg "Moment_kernel: slice capacity exceeded";
    List.iteri
      (fun c (x : Mixture.component) ->
        let o = 3 * (base + c) in
        FA.set a.slots o x.Mixture.weight;
        FA.set a.slots (o + 1) (Normal.mean x.Mixture.dist);
        FA.set a.slots (o + 2) (Normal.stddev x.Mixture.dist))
      cs;
    a.cnt.(id) <- List.length cs

  let seed t _s id =
    let st = t.st in
    let probs, rise, fall = t.cfg.params.source id in
    FA.set st.p_zero id probs.Four_value.p_zero;
    FA.set st.p_one id probs.Four_value.p_one;
    FA.set st.p_rise id probs.Four_value.p_rise;
    FA.set st.p_fall id probs.Four_value.p_fall;
    write_list st.rise id rise;
    write_list st.fall id fall;
    check t id

  let eval t s k =
    let st = t.st in
    let g = t.gate_net.(k) in
    let off = t.fanin_off.(k) in
    let arity = t.fanin_off.(k + 1) - off in
    let kind = Gate_kind.of_code t.kind_code.(k) in
    let inverting = Gate_kind.inverting kind in
    (* once per evaluated gate, before the gate step, as on the record
       path *)
    t.cfg.params.delay g s.db;
    let b = base_index kind in
    let mef = t.cfg.params.max_enumerated_fanin in
    if b < 0 then begin
      (* the operand's signal itself, inverted for NOT *)
      let i = t.fanin.(off) in
      set_probs st g ~inverting st.p_zero st.p_one st.p_rise st.p_fall i;
      let src_r = if inverting then st.fall else st.rise in
      let src_f = if inverting then st.rise else st.fall in
      write_dir t s ~rise:true g src_r.slots src_r.off.(i) src_r.cnt.(i);
      write_dir t s ~rise:false g src_f.slots src_f.off.(i) src_f.cnt.(i)
    end
    else begin
      if arity <= mef then begin
        for j = 0 to arity - 1 do
          load_operand st s j t.fanin.(off + j)
        done;
        enumerate t s t.tables.(b).(arity) arity ~inverting
      end
      else begin
        (* pairwise fold over the associative base kind *)
        load_operand st s 0 t.fanin.(off);
        for j = 1 to arity - 1 do
          if j > 1 then load_accumulated s;
          load_operand st s 1 t.fanin.(off + j);
          enumerate t s t.tables.(b).(2) 2 ~inverting
        done
      end;
      set_probs st g ~inverting s.p0 s.p1 s.pr s.pf 0;
      if inverting then begin
        write_dir t s ~rise:true g s.out_f 0 s.n_f;
        write_dir t s ~rise:false g s.out_r 0 s.n_r
      end
      else begin
        write_dir t s ~rise:true g s.out_r 0 s.n_r;
        write_dir t s ~rise:false g s.out_f 0 s.n_f
      end
    end;
    check t g
end

module S = Propagate.Sweep (K)

let kernel st params tables =
  let csr = Circuit.csr st.circuit in
  let max_arity = max 2 csr.Circuit.max_fanin in
  let mis_stride = max_arity + 1 in
  let mis_fm1 =
    match params.mis with
    | None -> FA.create 0
    | Some model ->
      FA.init (2 * mis_stride) (fun x ->
          let rule = if x / mis_stride = 1 then Timing_rule.Min else Timing_rule.Max in
          let k = x mod mis_stride in
          if k = 0 then 0.0 else Mis_model.factor model rule ~simultaneous:k -. 1.0)
  in
  { K.st;
    cfg = { params; mis_fm1; mis_stride };
    tables;
    gate_net = csr.Circuit.gate_net;
    kind_code = csr.Circuit.kind_code;
    fanin_off = csr.Circuit.fanin_off;
    fanin = csr.Circuit.fanin;
    max_arity }

(* a state laid out for the circuit's current gate kinds, with its
   truth tables *)
let fresh circuit params ~prev =
  let tables = build_tables circuit ~mef:params.max_enumerated_fanin in
  let rise, fall = layout circuit tables ~mef:params.max_enumerated_fanin ~prev in
  let n = Circuit.num_nets circuit in
  ( { circuit; p_zero = FA.create n; p_one = FA.create n; p_rise = FA.create n;
      p_fall = FA.create n; rise; fall },
    tables )

let run params ?domains circuit =
  let st, tables = fresh circuit params ~prev:None in
  S.run ?domains (kernel st params tables);
  st

let update params prev ~changed =
  let st, tables = fresh prev.circuit params ~prev:(Some prev) in
  FA.blit prev.p_zero 0 st.p_zero 0 (FA.length st.p_zero);
  FA.blit prev.p_one 0 st.p_one 0 (FA.length st.p_one);
  FA.blit prev.p_rise 0 st.p_rise 0 (FA.length st.p_rise);
  FA.blit prev.p_fall 0 st.p_fall 0 (FA.length st.p_fall);
  let copy (src : arena) (dst : arena) =
    Array.iteri
      (fun id cnt ->
        FA.blit src.slots (3 * src.off.(id)) dst.slots (3 * dst.off.(id)) (3 * cnt);
        dst.cnt.(id) <- cnt)
      src.cnt
  in
  copy prev.rise st.rise;
  copy prev.fall st.fall;
  S.update (kernel st params tables) ~changed;
  st

(* ------------------------------------------------------------------ *)
(* Readers. *)

let circuit st = st.circuit

let probs st id =
  { Four_value.p_zero = FA.get st.p_zero id; p_one = FA.get st.p_one id;
    p_rise = FA.get st.p_rise id; p_fall = FA.get st.p_fall id }

let arena st = function `Rise -> st.rise | `Fall -> st.fall

let top st direction id =
  let a = arena st direction in
  let base = a.off.(id) in
  Mixture.of_components
    (List.init a.cnt.(id) (fun c ->
         let o = 3 * (base + c) in
         { Mixture.weight = FA.get a.slots o;
           dist = Normal.make ~mu:(FA.get a.slots (o + 1)) ~sigma:(FA.get a.slots (o + 2)) }))

(* [Mixture.total_weight]/[Mixture.mean] on the slice, without building
   the list *)
let moments st direction id =
  let a = arena st direction in
  let mb = Mixture.moments_buf () in
  for c = a.off.(id) to a.off.(id) + a.cnt.(id) - 1 do
    mb.Mixture.mb_weight <- FA.get a.slots (3 * c);
    mb.Mixture.mb_mu <- FA.get a.slots ((3 * c) + 1);
    mb.Mixture.mb_sigma <- FA.get a.slots ((3 * c) + 2);
    Mixture.moments_add mb
  done;
  mb

let total st direction id = (moments st direction id).Mixture.mb_total

let mean st direction id =
  let mb = moments st direction id in
  if mb.Mixture.mb_total <= eps then 0.0
  else begin
    Mixture.moments_finish mb;
    mb.Mixture.mb_m1
  end
