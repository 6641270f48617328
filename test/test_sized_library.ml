(* Size groups and the resize transform: constructor validation, the
   drive-strength scaling laws of the generated families, assignment
   bookkeeping, and the QCheck monotonicity property behind the sizer —
   upsizing any single gate never slows the chip down and never shrinks
   it. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Sized = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta

let close ?(tol = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.10f, got %.10f" name expected actual

let raises name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let kinds =
  [ Gate_kind.Not; Gate_kind.Buf; Gate_kind.And; Gate_kind.Nand; Gate_kind.Or;
    Gate_kind.Nor; Gate_kind.Xor; Gate_kind.Xnor ]

(* ---------- constructor validation ---------- *)

let test_make_validation () =
  let base = Spsta_netlist.Cell_library.default in
  raises "empty drives" (fun () -> Sized.make ~drives:[||] base);
  raises "non-positive drive" (fun () -> Sized.make ~drives:[| 0.0; 1.0 |] base);
  raises "non-finite drive" (fun () -> Sized.make ~drives:[| 1.0; Float.infinity |] base);
  raises "non-increasing drives" (fun () -> Sized.make ~drives:[| 1.0; 1.0 |] base);
  raises "intrinsic above 1" (fun () -> Sized.make ~intrinsic:1.5 ~drives:[| 1.0 |] base);
  raises "family sizes < 1" (fun () -> Sized.family ~sizes:0 base);
  raises "family ratio <= 1" (fun () -> Sized.family ~ratio:1.0 base)

let test_family_shape () =
  let t = Sized.family ~sizes:5 ~ratio:2.0 Spsta_netlist.Cell_library.default in
  Alcotest.(check int) "num sizes" 5 (Sized.num_sizes t);
  close "drive ladder is geometric" 8.0 (Sized.drive t 3);
  raises "drive out of range" (fun () -> Sized.drive t 5)

(* the default laws: stronger is never slower, never smaller *)
let test_default_family_monotone () =
  let t = Sized.default in
  List.iter
    (fun kind ->
      List.iter
        (fun fanin ->
          for k = 0 to Sized.num_sizes t - 2 do
            let mean_delay size =
              let r, f = Sized.rise_fall_of t ~size kind ~fanin in
              (r +. f) /. 2.0
            in
            let d0 = mean_delay k and d1 = mean_delay (k + 1) in
            if d1 > d0 +. 1e-12 then
              Alcotest.failf "%s/%d delay rises from size %d (%g -> %g)"
                (Gate_kind.to_string kind) fanin k d0 d1;
            let a0 = Sized.area t ~size:k kind ~fanin
            and a1 = Sized.area t ~size:(k + 1) kind ~fanin in
            if a1 < a0 then
              Alcotest.failf "%s/%d area falls from size %d" (Gate_kind.to_string kind) fanin k;
            let c0 = Sized.capacitance t ~size:k kind ~fanin
            and c1 = Sized.capacitance t ~size:(k + 1) kind ~fanin in
            if c1 < c0 then
              Alcotest.failf "%s/%d cap falls from size %d" (Gate_kind.to_string kind) fanin k
          done)
        [ 1; 2; 3; 4 ])
    kinds

let test_size_zero_matches_base () =
  (* drive 1 with the default laws reproduces the base library delay *)
  let t = Sized.default in
  let base = Sized.base t in
  List.iter
    (fun kind ->
      let r, f = Sized.rise_fall_of t ~size:0 kind ~fanin:2 in
      let br = Spsta_netlist.Cell_library.delay base kind ~fanin:2 `Rise in
      let bf = Spsta_netlist.Cell_library.delay base kind ~fanin:2 `Fall in
      close "size-0 rise = base" br r;
      close "size-0 fall = base" bf f)
    kinds

(* ---------- assignments and the resize transform ---------- *)

let test_resize_gate () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let t = Sized.default in
  let asg = Sized.initial c in
  let g = (Circuit.topo_gates c).(0) in
  Alcotest.(check int) "initial is all-smallest" 0 (Sized.size_of asg g);
  Alcotest.(check (list int)) "resize returns the dirty net" [ g ]
    (Transform.resize_gate t c asg g ~size:2);
  Alcotest.(check int) "assignment updated" 2 (Sized.size_of asg g);
  Alcotest.(check (list int)) "no-op resize returns no dirty nets" []
    (Transform.resize_gate t c asg g ~size:2);
  raises "size out of range" (fun () -> Transform.resize_gate t c asg g ~size:99);
  let source = List.hd (Circuit.sources c) in
  raises "resizing a source" (fun () -> Transform.resize_gate t c asg source ~size:1)

let test_totals_track_resizes () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let t = Sized.default in
  let asg = Sized.initial c in
  let g = (Circuit.topo_gates c).(0) in
  let a0 = Sized.total_area t c asg and c0 = Sized.total_capacitance t c asg in
  ignore (Transform.resize_gate t c asg g ~size:3);
  let a1 = Sized.total_area t c asg and c1 = Sized.total_capacitance t c asg in
  Alcotest.(check bool) "area grew" true (a1 > a0);
  Alcotest.(check bool) "cap grew" true (c1 > c0);
  close "area delta is the gate's"
    (Sized.gate_area t c asg g -. (Sized.gate_area t c asg g /. Sized.drive t 3))
    (a1 -. a0) ~tol:1e-9

let test_uniform () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let t = Sized.default in
  let top = Sized.num_sizes t - 1 in
  let asg = Sized.uniform t c ~size:top in
  Alcotest.(check int) "length" (Circuit.num_nets c) (Array.length asg);
  Array.iteri
    (fun i s ->
      match Circuit.driver c i with
      | Circuit.Gate _ -> Alcotest.(check int) "gate at top size" top s
      | Circuit.Input | Circuit.Dff_output _ -> Alcotest.(check int) "non-gate at 0" 0 s)
    asg;
  Alcotest.(check bool) "size 0 equals initial" true
    (Sized.uniform t c ~size:0 = Sized.initial c);
  Alcotest.check_raises "negative size"
    (Invalid_argument "Sized_library.uniform: size -1 outside [0, 4)") (fun () ->
      ignore (Sized.uniform t c ~size:(-1)));
  Alcotest.check_raises "size past the family"
    (Invalid_argument "Sized_library.uniform: size 4 outside [0, 4)") (fun () ->
      ignore (Sized.uniform t c ~size:4))

(* ---------- QCheck: single-gate upsizing monotonicity ---------- *)

(* Upsizing any single gate never increases the mean critical-path
   delay and never decreases total area / switched capacitance — the
   property that makes the greedy upsize loop sound.  The delay side
   holds only up to Clark approximation error: speeding up an
   off-critical gate shifts second moments, and a downstream
   moment-matched MAX can report a mean larger by ~1e-5 on s344.  The
   1e-4 bound is ten times the worst case observed over every (gate,
   size) pair; area and capacitance are exact. *)
let upsizing_monotone =
  let c = Spsta_experiments.Benchmarks.load "s344" in
  let t = Sized.default in
  let gates = Circuit.topo_gates c in
  let chip_mean asg =
    let delay_rf id = Sized.delay_rf t c asg id in
    let r = Ssta.analyze ~delay_rf c in
    Float.max (Normal.mean (Ssta.max_arrival r `Rise)) (Normal.mean (Ssta.max_arrival r `Fall))
  in
  QCheck.Test.make ~name:"upsizing one gate: delay never up, area/cap never down" ~count:40
    QCheck.(pair (int_bound (Array.length gates - 1)) (int_range 1 (Sized.num_sizes t - 1)))
    (fun (gi, size) ->
      let g = gates.(gi) in
      let asg = Sized.initial c in
      let d0 = chip_mean asg in
      let a0 = Sized.total_area t c asg and c0 = Sized.total_capacitance t c asg in
      ignore (Transform.resize_gate t c asg g ~size);
      let d1 = chip_mean asg in
      let a1 = Sized.total_area t c asg and c1 = Sized.total_capacitance t c asg in
      d1 <= d0 +. 1e-4 && a1 >= a0 && c1 >= c0)

let suite =
  [
    Alcotest.test_case "constructor validation" `Quick test_make_validation;
    Alcotest.test_case "family generator shape" `Quick test_family_shape;
    Alcotest.test_case "default family monotone" `Quick test_default_family_monotone;
    Alcotest.test_case "size 0 matches base library" `Quick test_size_zero_matches_base;
    Alcotest.test_case "resize_gate dirty set" `Quick test_resize_gate;
    Alcotest.test_case "totals track resizes" `Quick test_totals_track_resizes;
    Alcotest.test_case "uniform assignment" `Quick test_uniform;
    QCheck_alcotest.to_alcotest upsizing_monotone;
  ]
