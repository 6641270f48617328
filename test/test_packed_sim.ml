(* Bit-parallel simulation: exhaustive equivalence of the packed gate
   kernels against the Value4 truth tables, and lane-for-lane exactness
   of Packed_sim against the scalar Logic_sim oracle. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Mis_model = Spsta_logic.Mis_model
module Packed_value4 = Spsta_sim.Packed_value4
module Packed_sim = Spsta_sim.Packed_sim
module Logic_sim = Spsta_sim.Logic_sim
module Input_spec = Spsta_sim.Input_spec
module Benchmarks = Spsta_experiments.Benchmarks
module Rng = Spsta_util.Rng

let values = [| Value4.Zero; Value4.One; Value4.Rising; Value4.Falling |]

(* Exhaustive kernel equivalence: for every gate kind and arity k <= 3,
   pack all 4^k input combinations into the lanes of one packed word
   (4^3 = 64 = the lane count) and compare every lane against eval4. *)
let test_kernels_exhaustive () =
  List.iter
    (fun kind ->
      let lo = Gate_kind.min_arity kind in
      let hi = match Gate_kind.max_arity kind with Some m -> min m 3 | None -> 3 in
      for k = lo to hi do
        let ncombo = 1 lsl (2 * k) in
        let combo_value c i = values.((c lsr (2 * i)) land 3) in
        let inputs =
          Array.init k (fun i -> Packed_value4.pack (Array.init ncombo (fun c -> combo_value c i)))
        in
        let out = Packed_value4.eval kind inputs in
        for c = 0 to ncombo - 1 do
          let expected = Gate_kind.eval4 kind (List.init k (combo_value c)) in
          if not (Value4.equal (Packed_value4.get out c) expected) then
            Alcotest.failf "%s arity %d combo %d: packed %s, eval4 %s"
              (Gate_kind.to_string kind) k c
              (Value4.to_string (Packed_value4.get out c))
              (Value4.to_string expected)
        done
      done)
    Gate_kind.all

(* The lane-wise connectives agree with Value4's on every lane pair. *)
let test_connectives () =
  let all16 a i = values.((i lsr (2 * a)) land 3) in
  let x = Packed_value4.pack (Array.init 16 (all16 0)) in
  let y = Packed_value4.pack (Array.init 16 (all16 1)) in
  for l = 0 to 15 do
    let a = all16 0 l and b = all16 1 l in
    Alcotest.(check string) "lnot" (Value4.to_string (Value4.lnot a))
      (Value4.to_string (Packed_value4.get (Packed_value4.lnot x) l));
    Alcotest.(check string) "land2" (Value4.to_string (Value4.land2 a b))
      (Value4.to_string (Packed_value4.get (Packed_value4.land2 x y) l));
    Alcotest.(check string) "lor2" (Value4.to_string (Value4.lor2 a b))
      (Value4.to_string (Packed_value4.get (Packed_value4.lor2 x y) l));
    Alcotest.(check string) "lxor2" (Value4.to_string (Value4.lxor2 a b))
      (Value4.to_string (Packed_value4.get (Packed_value4.lxor2 x y) l))
  done

let test_pack_masks () =
  let vs = Array.init 64 (fun l -> values.(l land 3)) in
  let p = Packed_value4.pack vs in
  Alcotest.(check bool) "unpack round trip" true
    (Array.for_all2 Value4.equal vs (Packed_value4.unpack p));
  Alcotest.(check int) "rise count" 16 (Packed_value4.popcount (Packed_value4.rise_mask p));
  Alcotest.(check int) "fall count" 16 (Packed_value4.popcount (Packed_value4.fall_mask p));
  Alcotest.(check int) "one count" 16 (Packed_value4.popcount (Packed_value4.one_mask p));
  Alcotest.(check int) "zero count" 16 (Packed_value4.popcount (Packed_value4.zero_mask p));
  Alcotest.(check int) "transition count" 32
    (Packed_value4.popcount (Packed_value4.transition_mask p))

(* Lane-for-lane oracle check: lane [l] of one packed run must equal —
   symbol and arrival time, at zero tolerance — a scalar run from an
   equal generator. *)
let lane_exact_check ?delay_sigma ?mis ~lanes ~seed circuit ~spec =
  let sim = Packed_sim.create circuit in
  let rngs = Array.init lanes (fun l -> Rng.stream ~seed l) in
  Packed_sim.run ?delay_sigma ?mis sim ~rngs ~spec;
  let n = Circuit.num_nets circuit in
  for l = 0 to lanes - 1 do
    let rng = Rng.stream ~seed l in
    let r = Logic_sim.run_random ?delay_sigma ?mis rng circuit ~spec in
    for i = 0 to n - 1 do
      let pv = Packed_sim.lane_value sim i ~lane:l in
      if not (Value4.equal pv r.Logic_sim.values.(i)) then
        Alcotest.failf "lane %d net %s: packed %s, scalar %s" l
          (Circuit.net_name circuit i) (Value4.to_string pv)
          (Value4.to_string r.Logic_sim.values.(i));
      let pt = Packed_sim.lane_time sim i ~lane:l in
      if pt <> r.Logic_sim.times.(i) then
        Alcotest.failf "lane %d net %s: packed time %.17g, scalar %.17g" l
          (Circuit.net_name circuit i) pt r.Logic_sim.times.(i)
    done
  done

let test_oracle_plain () =
  lane_exact_check ~lanes:64 ~seed:101 (Benchmarks.load "s344")
    ~spec:(fun _ -> Input_spec.case_i)

let test_oracle_partial_block () =
  lane_exact_check ~lanes:17 ~seed:103 (Benchmarks.load "s386")
    ~spec:(fun _ -> Input_spec.case_ii)

let test_oracle_delay_sigma () =
  lane_exact_check ~delay_sigma:0.15 ~lanes:64 ~seed:107 (Benchmarks.load "s344")
    ~spec:(fun _ -> Input_spec.case_ii)

let test_oracle_mis () =
  let mis = Mis_model.make ~max_slowdown:0.25 ~min_speedup:0.2 () in
  lane_exact_check ~delay_sigma:0.1 ~mis ~lanes:64 ~seed:109 (Benchmarks.load "s386")
    ~spec:(fun _ -> Input_spec.case_i)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_invalid_args () =
  let circuit = Benchmarks.s27 () in
  let sim = Packed_sim.create circuit in
  let spec _ = Input_spec.case_i in
  expect_invalid "empty rngs" (fun () -> Packed_sim.run sim ~rngs:[||] ~spec);
  expect_invalid "oversized rngs" (fun () ->
      Packed_sim.run sim ~rngs:(Array.init 65 (fun l -> Rng.stream ~seed:1 l)) ~spec);
  Packed_sim.run sim ~rngs:(Array.init 3 (fun l -> Rng.stream ~seed:1 l)) ~spec;
  Alcotest.(check int) "lanes_used" 3 (Packed_sim.lanes_used sim);
  Alcotest.(check int64) "active mask" 7L (Packed_sim.active sim);
  expect_invalid "lane beyond lanes_used" (fun () -> Packed_sim.lane_value sim 0 ~lane:3)

let suite =
  [
    Alcotest.test_case "kernels vs eval4, exhaustive" `Quick test_kernels_exhaustive;
    Alcotest.test_case "lane connectives" `Quick test_connectives;
    Alcotest.test_case "pack/unpack and masks" `Quick test_pack_masks;
    Alcotest.test_case "oracle: plain" `Quick test_oracle_plain;
    Alcotest.test_case "oracle: partial block" `Quick test_oracle_partial_block;
    Alcotest.test_case "oracle: delay sigma" `Quick test_oracle_delay_sigma;
    Alcotest.test_case "oracle: MIS + sigma" `Quick test_oracle_mis;
    Alcotest.test_case "argument validation" `Quick test_invalid_args;
  ]
