module Circuit = Spsta_netlist.Circuit
module Value4 = Spsta_logic.Value4
module Stats = Spsta_util.Stats
module Rng = Spsta_util.Rng
module Parallel = Spsta_util.Parallel

type engine = [ `Scalar | `Packed ]

type net_stats = {
  n_runs : int;
  count_zero : int;
  count_one : int;
  count_rise : int;
  count_fall : int;
  rise_times : Stats.acc;
  fall_times : Stats.acc;
}

(* n <= 0 guards both the empty result and any nonsense count *)
let ratio count n = if n <= 0 then 0.0 else float_of_int count /. float_of_int n

let p_zero s = ratio s.count_zero s.n_runs
let p_one s = ratio s.count_one s.n_runs
let p_rise s = ratio s.count_rise s.n_runs
let p_fall s = ratio s.count_fall s.n_runs
let signal_probability s = p_one s +. ((p_rise s +. p_fall s) /. 2.0)
let toggling_rate s = p_rise s +. p_fall s

type result = { circuit : Circuit.t; runs : int; per_net : net_stats array }

let stats r id = r.per_net.(id)

let merge a b =
  if Circuit.num_nets a.circuit <> Circuit.num_nets b.circuit then
    invalid_arg "Monte_carlo.merge: mismatched circuits";
  let combine (x : net_stats) (y : net_stats) =
    {
      n_runs = x.n_runs + y.n_runs;
      count_zero = x.count_zero + y.count_zero;
      count_one = x.count_one + y.count_one;
      count_rise = x.count_rise + y.count_rise;
      count_fall = x.count_fall + y.count_fall;
      rise_times = Stats.acc_merge x.rise_times y.rise_times;
      fall_times = Stats.acc_merge x.fall_times y.fall_times;
    }
  in
  {
    circuit = a.circuit;
    runs = a.runs + b.runs;
    per_net = Array.mapi (fun i x -> combine x b.per_net.(i)) a.per_net;
  }

(* Per-chunk accumulation state, turned into net_stats when the chunk
   completes.  The Welford update is written out inline (same-module, so
   it actually inlines) but reproduces Stats.acc_add's arithmetic
   exactly — required for the scalar and packed engines to produce
   bit-identical accumulators. *)
type chunk_acc = {
  mutable zero : int;
  mutable one : int;
  mutable rise : int;
  mutable fall : int;
  racc : Stats.acc;
  facc : Stats.acc;
}

let[@inline] acc_add (a : Stats.acc) x =
  let n = a.Stats.n + 1 in
  a.Stats.n <- n;
  let delta = x -. a.Stats.mu in
  a.Stats.mu <- a.Stats.mu +. (delta /. float_of_int n);
  a.Stats.m2 <- a.Stats.m2 +. (delta *. (x -. a.Stats.mu));
  if x < a.Stats.lo then a.Stats.lo <- x;
  if x > a.Stats.hi then a.Stats.hi <- x

let fresh_accs n =
  Array.init n (fun _ ->
      { zero = 0; one = 0; rise = 0; fall = 0; racc = Stats.acc_create (); facc = Stats.acc_create () })

let finish_chunk ~circuit ~runs accs =
  {
    circuit;
    runs;
    per_net =
      Array.map
        (fun a ->
          {
            n_runs = runs;
            count_zero = a.zero;
            count_one = a.one;
            count_rise = a.rise;
            count_fall = a.fall;
            rise_times = a.racc;
            fall_times = a.facc;
          })
        accs;
  }

(* ---- scalar engine: one Logic_sim trial per substream ---- *)

let scalar_chunk ?delay_sigma ?mis ~seed ~lo ~hi circuit ~spec =
  let n = Circuit.num_nets circuit in
  let accs = fresh_accs n in
  for run = lo to hi - 1 do
    let rng = Rng.stream ~seed run in
    let r = Logic_sim.run_random ?delay_sigma ?mis rng circuit ~spec in
    let values = r.Logic_sim.values and times = r.Logic_sim.times in
    for i = 0 to n - 1 do
      let a = accs.(i) in
      match values.(i) with
      | Value4.Zero -> a.zero <- a.zero + 1
      | Value4.One -> a.one <- a.one + 1
      | Value4.Rising ->
        a.rise <- a.rise + 1;
        acc_add a.racc times.(i)
      | Value4.Falling ->
        a.fall <- a.fall + 1;
        acc_add a.facc times.(i)
    done
  done;
  finish_chunk ~circuit ~runs:(hi - lo) accs

(* ---- packed engine: 64 trials per block, popcount counts, masked
   lane folds for the time statistics ---- *)

let mask32 = 0xFFFFFFFF

(* SWAR popcount of a 32-lane half; unlike C uint32 arithmetic the
   multiply keeps bits above 31 in a native int, so the byte extracted
   by [lsr 24] must be masked *)
let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

(* fold the times of the set lanes of [mask] (a 32-lane half) into
   [acc], in ascending lane order — the same order a scalar sweep over
   the block's runs would use *)
let[@inline] add_masked_times acc mask times tbase =
  let m = ref mask in
  while !m <> 0 do
    let l = popcount32 ((!m land - !m) - 1) in
    m := !m land (!m - 1);
    acc_add acc (Array.unsafe_get times (tbase + l))
  done

let packed_chunk ?delay_sigma ?mis ~seed ~lo ~hi sim ~spec =
  let circuit = Packed_sim.circuit sim in
  let n = Circuit.num_nets circuit in
  let accs = fresh_accs n in
  let planes = Packed_sim.raw_planes sim in
  let times = Packed_sim.raw_times sim in
  let base = ref lo in
  while !base < hi do
    let k = min 64 (hi - !base) in
    let b0 = !base in
    let rngs = Array.init k (fun l -> Rng.stream ~seed (b0 + l)) in
    Packed_sim.run ?delay_sigma ?mis sim ~rngs ~spec;
    let act_lo = if k >= 32 then mask32 else (1 lsl k) - 1 in
    let act_hi = if k <= 32 then 0 else (1 lsl (k - 32)) - 1 in
    for i = 0 to n - 1 do
      let p = i * 4 in
      let il = Array.unsafe_get planes p land act_lo in
      let ih = Array.unsafe_get planes (p + 1) land act_hi in
      let fl = Array.unsafe_get planes (p + 2) land act_lo in
      let fh = Array.unsafe_get planes (p + 3) land act_hi in
      let rise_lo = lnot il land fl and rise_hi = lnot ih land fh in
      let fall_lo = il land lnot fl and fall_hi = ih land lnot fh in
      let one = popcount32 (il land fl) + popcount32 (ih land fh) in
      let rise = popcount32 rise_lo + popcount32 rise_hi in
      let fall = popcount32 fall_lo + popcount32 fall_hi in
      let a = accs.(i) in
      a.zero <- a.zero + (k - one - rise - fall);
      a.one <- a.one + one;
      a.rise <- a.rise + rise;
      a.fall <- a.fall + fall;
      if rise > 0 then begin
        let tbase = i * 64 in
        add_masked_times a.racc rise_lo times tbase;
        add_masked_times a.racc rise_hi times (tbase + 32)
      end;
      if fall > 0 then begin
        let tbase = i * 64 in
        add_masked_times a.facc fall_lo times tbase;
        add_masked_times a.facc fall_hi times (tbase + 32)
      end
    done;
    base := !base + k
  done;
  finish_chunk ~circuit ~runs:(hi - lo) accs

(* ---- chunked, order-fixed reduction ----

   Trials are grouped into fixed 512-run chunks (chunk c covers trials
   [512c, 512(c+1)) ∩ [0, runs)), accumulated left-to-right inside the
   chunk, and the chunk results are merged along a fixed binary tree
   (split at the largest power of two below the size).  Neither the
   grouping nor the tree depends on the engine or the domain count, and
   both engines produce identical per-trial observations, so every
   (engine, domains) combination yields bit-identical results. *)

let chunk_runs = 512

let rec reduce_tree slots lo hi =
  if hi - lo = 1 then slots.(lo)
  else begin
    let size = hi - lo in
    let p = ref 1 in
    while !p * 2 < size do
      p := !p * 2
    done;
    merge (reduce_tree slots lo (lo + !p)) (reduce_tree slots (lo + !p) hi)
  end

let empty_result circuit = finish_chunk ~circuit ~runs:0 (fresh_accs (Circuit.num_nets circuit))

let simulate ?delay_sigma ?mis ?(runs = 10_000) ?(engine = `Packed) ?(domains = 1)
    ~seed circuit ~spec =
  if runs < 0 then invalid_arg "Monte_carlo.simulate: negative runs";
  if domains < 1 then invalid_arg "Monte_carlo.simulate: domains must be positive";
  if runs = 0 then empty_result circuit
  else begin
    let nchunks = (runs + chunk_runs - 1) / chunk_runs in
    let slots = Array.make nchunks (empty_result circuit) in
    let compute lo hi =
      (* one scratch simulator per contiguous chunk range (= per domain) *)
      let chunk =
        match engine with
        | `Scalar ->
          fun ~lo ~hi -> scalar_chunk ?delay_sigma ?mis ~seed ~lo ~hi circuit ~spec
        | `Packed ->
          let sim = Packed_sim.create circuit in
          fun ~lo ~hi -> packed_chunk ?delay_sigma ?mis ~seed ~lo ~hi sim ~spec
      in
      for c = lo to hi - 1 do
        slots.(c) <- chunk ~lo:(c * chunk_runs) ~hi:(min runs ((c + 1) * chunk_runs))
      done
    in
    if domains = 1 then compute 0 nchunks
    else Parallel.iter_ranges ~domains nchunks compute;
    reduce_tree slots 0 nchunks
  end
