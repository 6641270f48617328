(* Incremental re-analysis through the engine for the min/max analyzers:
   Ssta.update and Sta.update refine their result in place, must match a
   full re-analysis on the dirty cone and leave everything outside it
   untouched; Ssta.copy isolates a trial update from the original. *)

module Circuit = Spsta_netlist.Circuit
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Sta = Spsta_ssta.Sta

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

(* ---------- SSTA ---------- *)

let default_arrival = { Ssta.rise = Normal.make ~mu:0.0 ~sigma:1.0; fall = Normal.make ~mu:0.0 ~sigma:1.0 }
let late_arrival = { Ssta.rise = Normal.make ~mu:2.0 ~sigma:0.5; fall = Normal.make ~mu:2.5 ~sigma:0.25 }

let ssta_equal c name full incremental =
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Ssta.arrival full i and b = Ssta.arrival incremental i in
    let label = Printf.sprintf "%s/%s" name (Circuit.net_name c i) in
    close (label ^ " rise mean") (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise) ~tol:1e-12;
    close (label ^ " rise sigma") (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise)
      ~tol:1e-12;
    close (label ^ " fall mean") (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall) ~tol:1e-12;
    close (label ^ " fall sigma") (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall)
      ~tol:1e-12
  done

let test_ssta_update_matches_full () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let base = Ssta.analyze c in
  let changed = List.hd (Circuit.primary_inputs c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let full = Ssta.analyze ~input_arrival_of:arrival_of c in
  Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ];
  ssta_equal c "source change" full base

let test_ssta_update_multi_change () =
  let c = Spsta_experiments.Benchmarks.load "s298" in
  let base = Ssta.analyze c in
  let sources = Circuit.sources c in
  let changed = List.filteri (fun i _ -> i mod 3 = 0) sources in
  let arrival_of s = if List.mem s changed then late_arrival else default_arrival in
  let full = Ssta.analyze ~input_arrival_of:arrival_of c in
  Ssta.update base ~input_arrival_of:arrival_of ~changed;
  ssta_equal c "multi change" full base

let clean_gates c changed =
  let dirty = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem dirty id) then begin
      Hashtbl.replace dirty id ();
      Array.iter mark (Circuit.fanout c id)
    end
  in
  mark changed;
  Array.to_list (Circuit.topo_gates c) |> List.filter (fun g -> not (Hashtbl.mem dirty g))

(* Outside the dirty cone an in-place update must leave the values
   bit-for-bit as they were (bitwise equality is the portable contract),
   and the record engine moreover keeps the very same state records. *)
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arrival_bits_equal a b =
  bits_equal (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise)
  && bits_equal (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise)
  && bits_equal (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall)
  && bits_equal (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall)

let test_ssta_clean_cone_shared () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let changed = List.hd (Circuit.sources c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let clean = clean_gates c changed in
  Alcotest.(check bool) "some clean gates exist" true (clean <> []);
  let base = Ssta.analyze c in
  let before = List.map (Ssta.arrival base) clean in
  Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ];
  List.iter2
    (fun g a ->
      Alcotest.(check bool) "clean arrival bitwise unchanged" true
        (arrival_bits_equal a (Ssta.arrival base g)))
    clean before;
  let base = Ssta.analyze_rf ~engine:`Record ~delay_rf:(fun _ -> (1.0, 1.0)) c in
  let before = List.map (Ssta.arrival base) clean in
  Ssta.update base ~input_arrival_of:arrival_of ~changed:[ changed ];
  List.iter2
    (fun g a ->
      Alcotest.(check bool) "clean arrival physically kept (record engine)" true
        (a == Ssta.arrival base g))
    clean before

(* [copy] is what a trial move (the sizer's) pays for a result it may
   reject: updating the copy must leave the original bitwise unchanged on
   every net, on both engines, while the copy itself matches a full
   re-analysis. *)
let test_ssta_update_on_copy () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let changed = List.hd (Circuit.sources c) in
  let arrival_of s = if s = changed then late_arrival else default_arrival in
  let full = Ssta.analyze ~input_arrival_of:arrival_of c in
  List.iter
    (fun engine ->
      let base = Ssta.analyze_rf ~engine ~delay_rf:(fun _ -> (1.0, 1.0)) c in
      let before = Array.init (Circuit.num_nets c) (Ssta.arrival base) in
      let trial = Ssta.copy base in
      Ssta.update trial ~input_arrival_of:arrival_of ~changed:[ changed ];
      Array.iteri
        (fun i a ->
          if not (arrival_bits_equal a (Ssta.arrival base i)) then
            Alcotest.failf "original changed at %s" (Circuit.net_name c i))
        before;
      ssta_equal c "updated copy" full trial;
      Alcotest.(check bool) "the copy did move" false
        (arrival_bits_equal (Ssta.arrival base changed) (Ssta.arrival trial changed)))
    [ `Flat; `Record ]

let test_ssta_noop_update () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let base = Ssta.analyze c in
  Ssta.update base ~changed:[];
  ssta_equal c "noop" (Ssta.analyze c) base

(* Idempotence under mutation: resize a gate, update, resize it back,
   update again — the second update recomputes the same cone from the
   same inputs with the same delays, so the result must be bit-identical
   to the untouched analysis (exact float equality, not tolerance). *)
let test_ssta_resize_roundtrip_bit_identical () =
  let module Sized = Spsta_netlist.Sized_library in
  let module Transform = Spsta_netlist.Transform in
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let sized = Sized.default in
  let asg = Sized.initial c in
  let delay_rf id = Sized.delay_rf sized c asg id in
  let base = Ssta.analyze ~delay_rf c in
  let back = Ssta.analyze ~delay_rf c in
  let gates = Circuit.topo_gates c in
  (* a mid-level gate: non-trivial cone both above and below *)
  let g = gates.(Array.length gates / 2) in
  Ssta.update ~delay_rf back ~changed:(Transform.resize_gate sized c asg g ~size:3);
  Ssta.update ~delay_rf back ~changed:(Transform.resize_gate sized c asg g ~size:0);
  Alcotest.(check int) "assignment restored" 0 (Sized.size_of asg g);
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Ssta.arrival base i and b = Ssta.arrival back i in
    let label = Printf.sprintf "roundtrip/%s" (Circuit.net_name c i) in
    close (label ^ " rise mean") (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise) ~tol:0.0;
    close (label ^ " rise sigma") (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise) ~tol:0.0;
    close (label ^ " fall mean") (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall) ~tol:0.0;
    close (label ^ " fall sigma") (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall) ~tol:0.0
  done

(* ---------- STA ---------- *)

let default_window = { Sta.earliest = 0.0; latest = 0.0 }
let wide_window = { Sta.earliest = -1.0; latest = 4.0 }

let sta_equal c name full incremental =
  for i = 0 to Circuit.num_nets c - 1 do
    let a = Sta.bounds full i and b = Sta.bounds incremental i in
    let label = Printf.sprintf "%s/%s" name (Circuit.net_name c i) in
    close (label ^ " earliest") a.Sta.earliest b.Sta.earliest ~tol:1e-12;
    close (label ^ " latest") a.Sta.latest b.Sta.latest ~tol:1e-12
  done

let test_sta_update_matches_full () =
  let c = Spsta_experiments.Benchmarks.load "s386" in
  let base = Sta.analyze c in
  let changed = List.hd (Circuit.primary_inputs c) in
  let bounds_of s = if s = changed then wide_window else default_window in
  let full = Sta.analyze ~input_bounds_of:bounds_of c in
  Sta.update base ~input_bounds_of:bounds_of ~changed:[ changed ];
  sta_equal c "source change" full base

let test_sta_clean_cone_shared () =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let changed = List.hd (Circuit.sources c) in
  let bounds_of s = if s = changed then wide_window else default_window in
  let clean = clean_gates c changed in
  Alcotest.(check bool) "some clean gates exist" true (clean <> []);
  let base = Sta.analyze c in
  let before = List.map (Sta.bounds base) clean in
  Sta.update base ~input_bounds_of:bounds_of ~changed:[ changed ];
  List.iter2
    (fun g a ->
      let b = Sta.bounds base g in
      Alcotest.(check bool) "clean bounds bitwise unchanged" true
        (bits_equal a.Sta.earliest b.Sta.earliest && bits_equal a.Sta.latest b.Sta.latest))
    clean before;
  let base = Sta_oracle.analyze c in
  let before = List.map (Sta_oracle.bounds base) clean in
  Sta_oracle.update base ~input_bounds_of:bounds_of ~changed:[ changed ];
  List.iter2
    (fun g a ->
      Alcotest.(check bool) "clean bounds physically kept (record engine)" true
        (a == Sta_oracle.bounds base g))
    clean before

let test_sta_noop_update () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let base = Sta.analyze c in
  Sta.update base ~changed:[];
  sta_equal c "noop" (Sta.analyze c) base

let suite =
  [
    Alcotest.test_case "SSTA source change" `Quick test_ssta_update_matches_full;
    Alcotest.test_case "SSTA multiple changes" `Quick test_ssta_update_multi_change;
    Alcotest.test_case "SSTA update on a copy keeps the original" `Quick
      test_ssta_update_on_copy;
    Alcotest.test_case "SSTA clean cone shared" `Quick test_ssta_clean_cone_shared;
    Alcotest.test_case "SSTA no-op update" `Quick test_ssta_noop_update;
    Alcotest.test_case "SSTA resize round-trip bit-identical" `Quick
      test_ssta_resize_roundtrip_bit_identical;
    Alcotest.test_case "STA source change" `Quick test_sta_update_matches_full;
    Alcotest.test_case "STA clean cone shared" `Quick test_sta_clean_cone_shared;
    Alcotest.test_case "STA no-op update" `Quick test_sta_noop_update;
  ]
