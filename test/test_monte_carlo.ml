module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Monte_carlo = Spsta_sim.Monte_carlo
module Input_spec = Spsta_sim.Input_spec
module Stats = Spsta_util.Stats

(* a small tree (no reconvergent fanout): independence assumptions hold
   exactly, so MC must converge to the analytic values *)
let tree_circuit () =
  let b = Circuit.Builder.create ~name:"tree" () in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Or [ "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Nand [ "n1"; "n2" ];
  Circuit.Builder.add_output b "y";
  Circuit.Builder.finalize b

let test_probabilities_converge () =
  let c = tree_circuit () in
  let r = Monte_carlo.simulate ~runs:40_000 ~seed:5 c ~spec:(fun _ -> Input_spec.case_i) in
  let n1 = Monte_carlo.stats r (Circuit.find_exn c "n1") in
  (* AND of two case-I inputs: P1 = 1/16, Pr = Pf = (1/4)^2... via eq 10:
     P1 = .25^2 = .0625; Pr = (.25+.25)^2 - .0625 = .1875 *)
  Alcotest.(check bool) "P1 near 1/16" true (Float.abs (Monte_carlo.p_one n1 -. 0.0625) < 0.01);
  Alcotest.(check bool) "Pr near 3/16" true (Float.abs (Monte_carlo.p_rise n1 -. 0.1875) < 0.01);
  Alcotest.(check bool) "Pf near 3/16" true (Float.abs (Monte_carlo.p_fall n1 -. 0.1875) < 0.01);
  Alcotest.(check bool) "probabilities sum to 1" true
    (Float.abs
       (Monte_carlo.p_zero n1 +. Monte_carlo.p_one n1 +. Monte_carlo.p_rise n1
        +. Monte_carlo.p_fall n1
       -. 1.0)
    < 1e-9)

let test_determinism () =
  let c = tree_circuit () in
  let a = Monte_carlo.simulate ~runs:500 ~seed:9 c ~spec:(fun _ -> Input_spec.case_i) in
  let b = Monte_carlo.simulate ~runs:500 ~seed:9 c ~spec:(fun _ -> Input_spec.case_i) in
  let y = Circuit.find_exn c "y" in
  Alcotest.(check int) "same rise counts" (Monte_carlo.stats a y).Monte_carlo.count_rise
    (Monte_carlo.stats b y).Monte_carlo.count_rise;
  let c2 = Monte_carlo.simulate ~runs:500 ~seed:10 c ~spec:(fun _ -> Input_spec.case_i) in
  Alcotest.(check bool) "different seed differs somewhere" true
    ((Monte_carlo.stats a y).Monte_carlo.count_rise <> (Monte_carlo.stats c2 y).Monte_carlo.count_rise
    || (Monte_carlo.stats a y).Monte_carlo.count_fall <> (Monte_carlo.stats c2 y).Monte_carlo.count_fall)

let test_run_count () =
  let c = tree_circuit () in
  let r = Monte_carlo.simulate ~runs:123 ~seed:1 c ~spec:(fun _ -> Input_spec.case_ii) in
  Alcotest.(check int) "runs recorded" 123 r.Monte_carlo.runs;
  let s = Monte_carlo.stats r (Circuit.find_exn c "y") in
  Alcotest.(check int) "counts total runs" 123
    (s.Monte_carlo.count_zero + s.Monte_carlo.count_one + s.Monte_carlo.count_rise
   + s.Monte_carlo.count_fall)

let test_arrival_times_of_buffer () =
  (* a single buffer: output arrival = input arrival + 1, so the observed
     rise-time mean must be ~1 and stddev ~1 under case I *)
  let b = Circuit.Builder.create () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Buf [ "a" ];
  Circuit.Builder.add_output b "y";
  let c = Circuit.Builder.finalize b in
  let r = Monte_carlo.simulate ~runs:40_000 ~seed:11 c ~spec:(fun _ -> Input_spec.case_i) in
  let s = Monte_carlo.stats r (Circuit.find_exn c "y") in
  Alcotest.(check bool) "mean ~ 1" true
    (Float.abs (Stats.acc_mean s.Monte_carlo.rise_times -. 1.0) < 0.03);
  Alcotest.(check bool) "stddev ~ 1" true
    (Float.abs (Stats.acc_stddev s.Monte_carlo.rise_times -. 1.0) < 0.03)

let test_signal_probability_accessor () =
  let c = tree_circuit () in
  let r = Monte_carlo.simulate ~runs:20_000 ~seed:13 c ~spec:(fun _ -> Input_spec.case_i) in
  let a = Monte_carlo.stats r (Circuit.find_exn c "a") in
  Alcotest.(check bool) "source SP near 0.5" true
    (Float.abs (Monte_carlo.signal_probability a -. 0.5) < 0.01);
  Alcotest.(check bool) "source toggling rate near 0.5" true
    (Float.abs (Monte_carlo.toggling_rate a -. 0.5) < 0.01)

let suite =
  [
    Alcotest.test_case "probabilities converge" `Slow test_probabilities_converge;
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "run counting" `Quick test_run_count;
    Alcotest.test_case "buffer arrival times" `Slow test_arrival_times_of_buffer;
    Alcotest.test_case "signal probability accessor" `Quick test_signal_probability_accessor;
  ]

let test_merge () =
  let c = tree_circuit () in
  let a = Monte_carlo.simulate ~runs:400 ~seed:1 c ~spec:(fun _ -> Input_spec.case_i) in
  let b = Monte_carlo.simulate ~runs:600 ~seed:2 c ~spec:(fun _ -> Input_spec.case_i) in
  let m = Monte_carlo.merge a b in
  Alcotest.(check int) "runs add" 1000 m.Monte_carlo.runs;
  let y = Circuit.find_exn c "y" in
  let sa = Monte_carlo.stats a y and sb = Monte_carlo.stats b y and sm = Monte_carlo.stats m y in
  Alcotest.(check int) "rise counts add" (sa.Monte_carlo.count_rise + sb.Monte_carlo.count_rise)
    sm.Monte_carlo.count_rise;
  (* merged mean equals the weighted mean of the shards *)
  let wa = float_of_int (Stats.acc_count sa.Monte_carlo.rise_times) in
  let wb = float_of_int (Stats.acc_count sb.Monte_carlo.rise_times) in
  let expected =
    ((wa *. Stats.acc_mean sa.Monte_carlo.rise_times)
    +. (wb *. Stats.acc_mean sb.Monte_carlo.rise_times))
    /. (wa +. wb)
  in
  Alcotest.(check (float 1e-9)) "merged mean" expected (Stats.acc_mean sm.Monte_carlo.rise_times)

let test_parallel_matches_sequential_statistics () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let p = Monte_carlo.simulate ~runs:20_000 ~domains:4 ~seed:5 c ~spec in
  Alcotest.(check int) "all runs executed" 20_000 p.Monte_carlo.runs;
  let s = Monte_carlo.simulate ~runs:20_000 ~seed:5 c ~spec in
  let y = Circuit.find_exn c "y" in
  let sp = Monte_carlo.stats p y and ss = Monte_carlo.stats s y in
  (* trial [i] always draws from stream [i] and the chunk reduction tree
     is fixed, so the parallel result IS the sequential one, bit for bit *)
  Alcotest.(check int) "rise counts equal" ss.Monte_carlo.count_rise sp.Monte_carlo.count_rise;
  Alcotest.(check (float 0.0)) "rise mean equal" (Stats.acc_mean ss.Monte_carlo.rise_times)
    (Stats.acc_mean sp.Monte_carlo.rise_times);
  Alcotest.(check (float 0.0)) "rise m2 equal" ss.Monte_carlo.rise_times.Stats.m2
    sp.Monte_carlo.rise_times.Stats.m2

let test_parallel_deterministic () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let a = Monte_carlo.simulate ~runs:2000 ~domains:3 ~seed:9 c ~spec in
  let b = Monte_carlo.simulate ~runs:2000 ~domains:3 ~seed:9 c ~spec in
  let y = Circuit.find_exn c "y" in
  let sa = Monte_carlo.stats a y and sb = Monte_carlo.stats b y in
  (* fixed (seed, domains) must reproduce the exact stream: counts and
     accumulated moments bit-identical, not merely statistically close *)
  Alcotest.(check int) "same rise counts" sa.Monte_carlo.count_rise sb.Monte_carlo.count_rise;
  Alcotest.(check int) "same fall counts" sa.Monte_carlo.count_fall sb.Monte_carlo.count_fall;
  Alcotest.(check (float 0.0)) "same rise mean" (Stats.acc_mean sa.Monte_carlo.rise_times)
    (Stats.acc_mean sb.Monte_carlo.rise_times);
  Alcotest.(check (float 0.0)) "same fall mean" (Stats.acc_mean sa.Monte_carlo.fall_times)
    (Stats.acc_mean sb.Monte_carlo.fall_times)

(* an odd run count must still be fully covered by the chunk ranges *)
let test_parallel_shards_cover_runs () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let p = Monte_carlo.simulate ~runs:1999 ~domains:4 ~seed:3 c ~spec in
  Alcotest.(check int) "odd run count fully covered" 1999 p.Monte_carlo.runs;
  let y = Circuit.find_exn c "y" in
  let s = Monte_carlo.stats p y in
  Alcotest.(check bool) "no shard lost transitions" true
    (s.Monte_carlo.count_rise + s.Monte_carlo.count_fall <= 1999
    && s.Monte_carlo.count_rise > 0)

(* the packed engine must equal the scalar oracle exactly: all counts,
   and the Welford accumulators bit for bit *)
let check_results_equal label (a : Monte_carlo.result) (b : Monte_carlo.result) =
  Alcotest.(check int) (label ^ ": runs") a.Monte_carlo.runs b.Monte_carlo.runs;
  Array.iteri
    (fun i (x : Monte_carlo.net_stats) ->
      let y = b.Monte_carlo.per_net.(i) in
      if
        x.Monte_carlo.count_zero <> y.Monte_carlo.count_zero
        || x.Monte_carlo.count_one <> y.Monte_carlo.count_one
        || x.Monte_carlo.count_rise <> y.Monte_carlo.count_rise
        || x.Monte_carlo.count_fall <> y.Monte_carlo.count_fall
      then Alcotest.failf "%s: net %d counts differ" label i;
      let acc_eq (p : Stats.acc) (q : Stats.acc) =
        p.Stats.n = q.Stats.n && p.Stats.mu = q.Stats.mu && p.Stats.m2 = q.Stats.m2
        && p.Stats.lo = q.Stats.lo && p.Stats.hi = q.Stats.hi
      in
      if not (acc_eq x.Monte_carlo.rise_times y.Monte_carlo.rise_times) then
        Alcotest.failf "%s: net %d rise accumulators differ" label i;
      if not (acc_eq x.Monte_carlo.fall_times y.Monte_carlo.fall_times) then
        Alcotest.failf "%s: net %d fall accumulators differ" label i)
    a.Monte_carlo.per_net

let test_engines_bit_identical () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_ii in
  (* 1300 runs: full chunks, a partial chunk, and partial 64-lane blocks *)
  check_results_equal "plain"
    (Monte_carlo.simulate_scalar ~runs:1300 ~domains:1 ~seed:21 c ~spec)
    (Monte_carlo.simulate ~runs:1300 ~seed:21 c ~spec);
  let mis = Spsta_logic.Mis_model.make ~max_slowdown:0.25 ~min_speedup:0.2 () in
  check_results_equal "sigma+mis"
    (Monte_carlo.simulate_scalar ~delay_sigma:0.2 ~mis ~runs:700 ~domains:1 ~seed:23 c ~spec)
    (Monte_carlo.simulate ~delay_sigma:0.2 ~mis ~runs:700 ~seed:23 c ~spec)

let test_domains_independence () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let base = Monte_carlo.simulate ~runs:2100 ~seed:31 c ~spec in
  List.iter
    (fun domains ->
      check_results_equal
        (Printf.sprintf "domains=%d" domains)
        base
        (Monte_carlo.simulate ~runs:2100 ~domains ~seed:31 c ~spec))
    [ 2; 3; 5 ]

let test_merge_zero_runs () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let some = Monte_carlo.simulate ~runs:300 ~seed:3 c ~spec in
  let none = Monte_carlo.simulate ~runs:0 ~seed:3 c ~spec in
  Alcotest.(check int) "zero-run result" 0 none.Monte_carlo.runs;
  let y = Circuit.find_exn c "y" in
  let sn = Monte_carlo.stats none y in
  (* the pre-fix ratio helpers divided by n_runs = 0 here *)
  Alcotest.(check (float 0.0)) "p_rise of empty" 0.0 (Monte_carlo.p_rise sn);
  Alcotest.(check (float 0.0)) "SP of empty" 0.0 (Monte_carlo.signal_probability sn);
  Alcotest.(check (float 0.0)) "toggling of empty" 0.0 (Monte_carlo.toggling_rate sn);
  (* merging with an empty side is the identity, bit for bit *)
  check_results_equal "empty on the right" some (Monte_carlo.merge some none);
  check_results_equal "empty on the left" some (Monte_carlo.merge none some);
  match Monte_carlo.simulate ~runs:(-1) ~seed:3 c ~spec with
  | _ -> Alcotest.fail "negative runs accepted"
  | exception Invalid_argument _ -> ()

let test_merge_associative_and_exact () =
  let c = tree_circuit () in
  let spec _ = Input_spec.case_i in
  let a = Monte_carlo.simulate ~runs:400 ~seed:1 c ~spec in
  let b = Monte_carlo.simulate ~runs:600 ~seed:2 c ~spec in
  let d = Monte_carlo.simulate ~runs:500 ~seed:3 c ~spec in
  let left = Monte_carlo.merge (Monte_carlo.merge a b) d in
  let right = Monte_carlo.merge a (Monte_carlo.merge b d) in
  Alcotest.(check int) "runs" 1500 left.Monte_carlo.runs;
  let y = Circuit.find_exn c "y" in
  let sl = Monte_carlo.stats left y and sr = Monte_carlo.stats right y in
  (* counts are order-free integers: exactly associative *)
  Alcotest.(check int) "rise counts associative" sl.Monte_carlo.count_rise
    sr.Monte_carlo.count_rise;
  Alcotest.(check int) "fall counts associative" sl.Monte_carlo.count_fall
    sr.Monte_carlo.count_fall;
  (* Welford merging is associative only up to rounding; 1e-12 here *)
  Alcotest.(check (float 1e-12)) "mean associative"
    (Stats.acc_mean sl.Monte_carlo.rise_times)
    (Stats.acc_mean sr.Monte_carlo.rise_times);
  Alcotest.(check (float 1e-12)) "stddev associative"
    (Stats.acc_stddev sl.Monte_carlo.rise_times)
    (Stats.acc_stddev sr.Monte_carlo.rise_times);
  (* min/max are exact in any order *)
  Alcotest.(check (float 0.0)) "lo associative" sl.Monte_carlo.rise_times.Stats.lo
    sr.Monte_carlo.rise_times.Stats.lo;
  Alcotest.(check (float 0.0)) "hi associative" sl.Monte_carlo.rise_times.Stats.hi
    sr.Monte_carlo.rise_times.Stats.hi

(* Every Monte Carlo figure the library reports, one tab-separated line
   each, floats as hex (exact bits): per-net [simulate] statistics on
   s27 and s344, plain and with process variation plus MIS, at one and
   two domains (1300 runs: full 512-run chunks, a partial chunk and a
   partial 64-lane block); the Fig. 1 chip-delay samples on s27; the
   bytes of an exported MC histogram; and per-net [Sequential_sim]
   statistics on s27. *)
let mc_fact_rows () =
  let module Benchmarks = Spsta_experiments.Benchmarks in
  let module Workloads = Spsta_experiments.Workloads in
  let rows = ref [] in
  let row fmt = Printf.ksprintf (fun l -> rows := l :: !rows) fmt in
  let acc (a : Stats.acc) =
    Printf.sprintf "%d %h %h %h %h" a.Stats.n a.Stats.mu a.Stats.m2 a.Stats.lo a.Stats.hi
  in
  let per_net c (stats : Monte_carlo.net_stats array) =
    Array.iteri
      (fun i (s : Monte_carlo.net_stats) ->
        row "%s\t%d\t%d %d %d %d\t%s\t%s" (Circuit.net_name c i) s.Monte_carlo.n_runs
          s.Monte_carlo.count_zero s.Monte_carlo.count_one s.Monte_carlo.count_rise
          s.Monte_carlo.count_fall (acc s.Monte_carlo.rise_times) (acc s.Monte_carlo.fall_times))
      stats
  in
  let mis = Spsta_logic.Mis_model.make ~max_slowdown:0.25 ~min_speedup:0.2 () in
  List.iter
    (fun name ->
      let c = Benchmarks.load name in
      List.iter
        (fun domains ->
          let spec = Workloads.spec_fn Workloads.Case_i in
          row "mc\t%s\tplain\tdomains=%d" name domains;
          per_net c (Monte_carlo.simulate ~runs:1300 ~domains ~seed:17 c ~spec).Monte_carlo.per_net;
          let spec = Workloads.spec_fn Workloads.Case_ii in
          row "mc\t%s\tsigma+mis\tdomains=%d" name domains;
          per_net c
            (Monte_carlo.simulate ~delay_sigma:0.2 ~mis ~runs:1300 ~domains ~seed:19 c ~spec)
              .Monte_carlo.per_net)
        [ 1; 2 ])
    [ "s27"; "s344" ];
  let s27 = Benchmarks.load "s27" in
  let fig1 =
    Spsta_experiments.Fig1.run ~runs:700 ~seed:5 ~circuit:s27 ~case:Workloads.Case_i ()
  in
  row "fig1\ts27\t%d delays" (Array.length fig1.Spsta_experiments.Fig1.mc_delays);
  Array.iter (fun d -> row "%h" d) fig1.Spsta_experiments.Fig1.mc_delays;
  let net = List.hd (List.rev (Circuit.endpoints s27)) in
  row "histogram\ts27\t%s" (Circuit.net_name s27 net);
  String.split_on_char '\n'
    (Spsta_experiments.Export.mc_histogram ~runs:1300 ~seed:9 ~bins:20 s27
       ~spec:(Workloads.spec_fn Workloads.Case_i) ~net)
  |> List.iter (fun l -> row "csv\t%s" l);
  let seq =
    Spsta_sim.Sequential_sim.simulate ~warmup:50 ~cycles:700 ~seed:3 s27
      ~pi_spec:(Workloads.spec_fn Workloads.Case_i)
  in
  row "sequential\ts27\t%d cycles" seq.Spsta_sim.Sequential_sim.cycles;
  per_net s27 seq.Spsta_sim.Sequential_sim.per_net;
  List.rev !rows

let test_mc_facts_pinned () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "golden/mc_facts.tsv" in
  let expected =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let rec first_diff i = function
    | e :: es, a :: as_ ->
      if e <> a then Alcotest.failf "line %d:\nexpected %s\n  actual %s" i e a
      else first_diff (i + 1) (es, as_)
    | [], [] -> ()
    | _ -> Alcotest.failf "line %d: the golden and the facts differ in length" i
  in
  first_diff 1 (expected, mc_fact_rows ())

let suite =
  suite
  @ [
      Alcotest.test_case "merge" `Quick test_merge;
      Alcotest.test_case "parallel equals sequential" `Slow
        test_parallel_matches_sequential_statistics;
      Alcotest.test_case "parallel determinism" `Quick test_parallel_deterministic;
      Alcotest.test_case "parallel shard coverage" `Quick test_parallel_shards_cover_runs;
      Alcotest.test_case "engines bit-identical" `Quick test_engines_bit_identical;
      Alcotest.test_case "domains independence" `Quick test_domains_independence;
      Alcotest.test_case "merge zero runs" `Quick test_merge_zero_runs;
      Alcotest.test_case "merge associativity" `Quick test_merge_associative_and_exact;
      Alcotest.test_case "every MC fact pinned" `Quick test_mc_facts_pinned;
    ]
