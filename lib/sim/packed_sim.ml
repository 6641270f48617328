module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Gate_kind = Spsta_logic.Gate_kind
module Timing_rule = Spsta_logic.Timing_rule
module Mis_model = Spsta_logic.Mis_model
module Rng = Spsta_util.Rng
module Cell_library = Spsta_netlist.Cell_library

(* The hot loops run on native ints, not Int64: every Int64 operation
   allocates a box without flambda, while a 64-lane block split into two
   32-lane native halves stays register-resident.  The per-net plane
   layout is 4 consecutive words in [planes]:

     planes.(4*net)     initial levels, lanes  0..31
     planes.(4*net + 1) initial levels, lanes 32..63
     planes.(4*net + 2) final   levels, lanes  0..31
     planes.(4*net + 3) final   levels, lanes 32..63

   and [times]/[delays] are lane-major per net: index [64*net + lane].
   Packed_value4's int64 view is reconstructed only at the API edge. *)

type t = {
  circuit : Circuit.t;
  n : int;
  sources : int array;
  gates : int array;  (* output net per gate, topological order *)
  op : int array;  (* plane_op per gate: 0 = and, 1 = or, 2 = xor *)
  invert : bool array;
  ctrl : int array;  (* controlled output value per gate: -1 none, 0, 1 *)
  inputs : int array array;
  planes : int array;
  times : float array;
  mutable delays : float array;  (* empty until a run needs delay_sigma > 0 *)
  itrans_lo : int array;  (* scratch: per-input transition masks of one gate *)
  itrans_hi : int array;
  mutable nlanes : int;  (* lanes of the last run; 0 before any run *)
}

let mask32 = 0xFFFFFFFF

let create circuit =
  let n = Circuit.num_nets circuit in
  let gates = Array.copy (Circuit.topo_gates circuit) in
  let g = Array.length gates in
  let op = Array.make g 0 in
  let invert = Array.make g false in
  let ctrl = Array.make g (-1) in
  let inputs = Array.make g [||] in
  let maxfan = ref 1 in
  Array.iteri
    (fun k id ->
      match Circuit.driver circuit id with
      | Circuit.Gate { kind; inputs = ins } ->
        op.(k) <-
          (match Gate_kind.plane_op kind with
          | Gate_kind.Op_and -> 0
          | Gate_kind.Op_or -> 1
          | Gate_kind.Op_xor -> 2);
        invert.(k) <- Gate_kind.inverting kind;
        ctrl.(k) <-
          (match Gate_kind.controlled_value kind with
          | None -> -1
          | Some false -> 0
          | Some true -> 1);
        inputs.(k) <- Array.copy ins;
        if Array.length ins > !maxfan then maxfan := Array.length ins
      | Circuit.Input | Circuit.Dff_output _ -> assert false)
    gates;
  {
    circuit;
    n;
    sources = Array.of_list (Circuit.sources circuit);
    gates;
    op;
    invert;
    ctrl;
    inputs;
    planes = Array.make (4 * n) 0;
    times = Array.make (64 * n) 0.0;
    delays = [||];
    itrans_lo = Array.make !maxfan 0;
    itrans_hi = Array.make !maxfan 0;
    nlanes = 0;
  }

let circuit t = t.circuit
let lanes_used t = t.nlanes

let active t =
  if t.nlanes = 64 then -1L else Int64.sub (Int64.shift_left 1L t.nlanes) 1L

(* number of trailing zeros of a single-bit native value via de Bruijn
   multiplication (works for bits 0..31, all we isolate from halves) *)
let ntz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.((0x077CB531 lsl i) lsr 27 land 31) <- i
  done;
  t

(* evaluate the timing of one 32-lane half of one gate's output.
   [tmask]/[minmask] are the transitioning / MIN-rule lanes of the half;
   [itrans_half] holds the input transition masks of the same half.  The
   per-lane winner and delay arithmetic reproduces Logic_sim exactly:
   the comparison-based min/max equals Timing_rule.combine's Float.min /
   Float.max fold on every value the simulator produces (times are never
   NaN, and a -0.0 can only enter via a user-supplied -0.0 arrival
   mean). *)
let timing_half t ins ni tmask minmask lane_base itrans_half have_sigma mis gbase =
  let times = t.times in
  let delays = t.delays in
  let m = ref tmask in
  while !m <> 0 do
    let bit = !m land (- !m) in
    m := !m land (!m - 1);
    let l = Array.unsafe_get ntz_table ((bit * 0x077CB531) lsr 27 land 31) in
    let lane = lane_base + l in
    let is_min = minmask land bit <> 0 in
    let w = ref (if is_min then infinity else neg_infinity) in
    if is_min then
      for j = 0 to ni - 1 do
        if Array.unsafe_get itrans_half j land bit <> 0 then begin
          let tv = Array.unsafe_get times ((Array.unsafe_get ins j * 64) + lane) in
          if tv < !w then w := tv
        end
      done
    else
      for j = 0 to ni - 1 do
        if Array.unsafe_get itrans_half j land bit <> 0 then begin
          let tv = Array.unsafe_get times ((Array.unsafe_get ins j * 64) + lane) in
          if tv > !w then w := tv
        end
      done;
    let winner = !w in
    let d =
      if have_sigma then Array.unsafe_get delays (gbase + l) else Cell_library.unit_gate_delay
    in
    let d =
      match mis with
      | None -> d
      | Some model ->
        let simultaneous = ref 0 in
        let window = model.Mis_model.window in
        for j = 0 to ni - 1 do
          if Array.unsafe_get itrans_half j land bit <> 0 then begin
            let tv = Array.unsafe_get times ((Array.unsafe_get ins j * 64) + lane) in
            if Float.abs (tv -. winner) <= window then incr simultaneous
          end
        done;
        let rule = if is_min then Timing_rule.Min else Timing_rule.Max in
        d *. Mis_model.factor model rule ~simultaneous:!simultaneous
    in
    Array.unsafe_set times (gbase + l) (winner +. d)
  done

let run ?(delay_sigma = 0.0) ?mis t ~rngs ~spec =
  let k = Array.length rngs in
  if k < 1 || k > 64 then invalid_arg "Packed_sim.run: need 1..64 lane generators";
  t.nlanes <- k;
  let have_sigma = delay_sigma > 0.0 in
  (* per-lane draw order matches Logic_sim.run_random: gate delays for
     every net first (when delay_sigma > 0), then the sources in
     Circuit.sources order — so lane [l] consumes rngs.(l) exactly as
     one scalar run would *)
  if have_sigma then begin
    if Array.length t.delays = 0 then t.delays <- Array.make (64 * t.n) 0.0;
    let delays = t.delays in
    for l = 0 to k - 1 do
      let rng = rngs.(l) in
      for i = 0 to t.n - 1 do
        delays.((i * 64) + l) <-
          Rng.gaussian rng ~mu:Cell_library.unit_gate_delay ~sigma:delay_sigma
      done
    done
  end;
  let planes = t.planes in
  let times = t.times in
  (* sources: inline Input_spec.sample with identical stream consumption
     (one uniform for the symbol, one gaussian per transition) and
     identical choose_index threshold arithmetic *)
  let sources = t.sources in
  for si = 0 to Array.length sources - 1 do
    let s = sources.(si) in
    let sp : Input_spec.t = spec s in
    let c1 = 0.0 +. sp.Input_spec.p_zero in
    let c2 = c1 +. sp.Input_spec.p_one in
    let c3 = c2 +. sp.Input_spec.p_rise in
    let total = c3 +. sp.Input_spec.p_fall in
    if not (total > 0.0) then invalid_arg "Rng.choose_index: zero total weight";
    let mu_r = Spsta_dist.Normal.mean sp.Input_spec.rise_arrival in
    let sg_r = Spsta_dist.Normal.stddev sp.Input_spec.rise_arrival in
    let mu_f = Spsta_dist.Normal.mean sp.Input_spec.fall_arrival in
    let sg_f = Spsta_dist.Normal.stddev sp.Input_spec.fall_arrival in
    let base = s * 64 in
    let il = ref 0 and ih = ref 0 and fl = ref 0 and fh = ref 0 in
    for l = 0 to k - 1 do
      let rng = rngs.(l) in
      let target = Rng.float rng *. total in
      if target < c1 then times.(base + l) <- 0.0 (* Zero *)
      else if target < c2 then begin
        (* One *)
        times.(base + l) <- 0.0;
        if l < 32 then begin
          let b = 1 lsl l in
          il := !il lor b;
          fl := !fl lor b
        end
        else begin
          let b = 1 lsl (l - 32) in
          ih := !ih lor b;
          fh := !fh lor b
        end
      end
      else if target < c3 then begin
        (* Rising *)
        times.(base + l) <- Rng.gaussian rng ~mu:mu_r ~sigma:sg_r;
        if l < 32 then fl := !fl lor (1 lsl l) else fh := !fh lor (1 lsl (l - 32))
      end
      else begin
        (* Falling *)
        times.(base + l) <- Rng.gaussian rng ~mu:mu_f ~sigma:sg_f;
        if l < 32 then il := !il lor (1 lsl l) else ih := !ih lor (1 lsl (l - 32))
      end
    done;
    let p = s * 4 in
    planes.(p) <- !il;
    planes.(p + 1) <- !ih;
    planes.(p + 2) <- !fl;
    planes.(p + 3) <- !fh
  done;
  (* gates, in topological order *)
  let act_lo = if k >= 32 then mask32 else (1 lsl k) - 1 in
  let act_hi = if k <= 32 then 0 else (1 lsl (k - 32)) - 1 in
  let act_hi = if k = 64 then mask32 else act_hi in
  let gates = t.gates in
  let itrans_lo = t.itrans_lo and itrans_hi = t.itrans_hi in
  for gi = 0 to Array.length gates - 1 do
    let gout = Array.unsafe_get gates gi in
    let ins = Array.unsafe_get t.inputs gi in
    let ni = Array.length ins in
    let o0 = Array.unsafe_get ins 0 * 4 in
    let il = ref (Array.unsafe_get planes o0)
    and ih = ref (Array.unsafe_get planes (o0 + 1))
    and fl = ref (Array.unsafe_get planes (o0 + 2))
    and fh = ref (Array.unsafe_get planes (o0 + 3)) in
    (match Array.unsafe_get t.op gi with
    | 0 ->
      for j = 1 to ni - 1 do
        let o = Array.unsafe_get ins j * 4 in
        il := !il land Array.unsafe_get planes o;
        ih := !ih land Array.unsafe_get planes (o + 1);
        fl := !fl land Array.unsafe_get planes (o + 2);
        fh := !fh land Array.unsafe_get planes (o + 3)
      done
    | 1 ->
      for j = 1 to ni - 1 do
        let o = Array.unsafe_get ins j * 4 in
        il := !il lor Array.unsafe_get planes o;
        ih := !ih lor Array.unsafe_get planes (o + 1);
        fl := !fl lor Array.unsafe_get planes (o + 2);
        fh := !fh lor Array.unsafe_get planes (o + 3)
      done
    | _ ->
      for j = 1 to ni - 1 do
        let o = Array.unsafe_get ins j * 4 in
        il := !il lxor Array.unsafe_get planes o;
        ih := !ih lxor Array.unsafe_get planes (o + 1);
        fl := !fl lxor Array.unsafe_get planes (o + 2);
        fh := !fh lxor Array.unsafe_get planes (o + 3)
      done);
    if Array.unsafe_get t.invert gi then begin
      il := lnot !il land mask32;
      ih := lnot !ih land mask32;
      fl := lnot !fl land mask32;
      fh := lnot !fh land mask32
    end;
    let p = gout * 4 in
    planes.(p) <- !il;
    planes.(p + 1) <- !ih;
    planes.(p + 2) <- !fl;
    planes.(p + 3) <- !fh;
    let tr_lo = (!il lxor !fl) land act_lo and tr_hi = (!ih lxor !fh) land act_hi in
    if tr_lo lor tr_hi <> 0 then begin
      (* MIN-rule lanes: transitioning lanes whose final output level is
         the gate's controlled value (Timing_rule.for_output) *)
      let min_lo, min_hi =
        match Array.unsafe_get t.ctrl gi with
        | -1 -> (0, 0)
        | 1 -> (tr_lo land !fl, tr_hi land !fh)
        | _ -> (tr_lo land lnot !fl, tr_hi land lnot !fh)
      in
      for j = 0 to ni - 1 do
        let o = Array.unsafe_get ins j * 4 in
        Array.unsafe_set itrans_lo j
          (Array.unsafe_get planes o lxor Array.unsafe_get planes (o + 2));
        Array.unsafe_set itrans_hi j
          (Array.unsafe_get planes (o + 1) lxor Array.unsafe_get planes (o + 3))
      done;
      let gbase = gout * 64 in
      if tr_lo <> 0 then
        timing_half t ins ni tr_lo min_lo 0 itrans_lo have_sigma mis gbase;
      if tr_hi <> 0 then
        timing_half t ins ni tr_hi min_hi 32 itrans_hi have_sigma mis (gbase + 32)
    end
  done

let check_lane t lane =
  if lane < 0 || lane >= t.nlanes then
    invalid_arg
      (Printf.sprintf "Packed_sim: lane %d outside the %d lanes of the last run" lane t.nlanes)

let planes t id =
  let p = id * 4 in
  let join lo hi =
    Int64.logor (Int64.of_int (t.planes.(p + lo) land mask32))
      (Int64.shift_left (Int64.of_int (t.planes.(p + hi) land mask32)) 32)
  in
  { Packed_value4.init = join 0 1; fin = join 2 3 }

let lane_value t id ~lane =
  check_lane t lane;
  let p = id * 4 in
  let half = if lane < 32 then 0 else 1 in
  let b = 1 lsl (lane land 31) in
  Value4.of_initial_final (t.planes.(p + half) land b <> 0) (t.planes.(p + 2 + half) land b <> 0)

let lane_time t id ~lane =
  check_lane t lane;
  let v = lane_value t id ~lane in
  if Value4.is_transition v then t.times.((id * 64) + lane) else 0.0

let raw_planes t = t.planes
let raw_times t = t.times
