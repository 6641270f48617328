(* The flat SPSTA moment kernel behind Analyzer.Moments against its
   oracle, the record engine Analyzer.Make (Top.Moment_backend): every
   net's four probabilities, component count and component
   weight/mu/sigma must be Int64-identical, under every analysis option,
   at domains 1/2/4, and through incremental update. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Mis_model = Spsta_logic.Mis_model
module Normal = Spsta_dist.Normal
module Mixture = Spsta_dist.Mixture
module Input_spec = Spsta_sim.Input_spec
module Four_value = Spsta_core.Four_value
module Analyzer = Spsta_core.Analyzer
module Moments = Analyzer.Moments
module Oracle = Analyzer.Make (Spsta_core.Top.Moment_backend)
module Sanitize = Spsta_engine.Propagate.Sanitize
module Rng = Spsta_util.Rng

let bits = Int64.bits_of_float

(* one net's signal, every float as its bit pattern *)
let signal_bits probs rise fall =
  let top m =
    List.map
      (fun (c : Mixture.component) ->
        ( bits c.Mixture.weight,
          bits (Normal.mean c.Mixture.dist),
          bits (Normal.stddev c.Mixture.dist) ))
      (Mixture.components m)
  in
  ( List.map bits
      [ probs.Four_value.p_zero; probs.Four_value.p_one; probs.Four_value.p_rise;
        probs.Four_value.p_fall ],
    top rise,
    top fall )

let flat_bits r id =
  let s = Moments.signal r id in
  signal_bits s.Moments.probs s.Moments.rise s.Moments.fall

let oracle_bits r id =
  let s = Oracle.signal r id in
  signal_bits s.Oracle.probs s.Oracle.rise s.Oracle.fall

let assert_identical what c expected actual =
  for id = 0 to Circuit.num_nets c - 1 do
    let (pe, re, fe) as e = expected id and (pa, ra, fa) as a = actual id in
    if e <> a then
      Alcotest.failf
        "%s: net %s differs (probs equal %b, rise %d vs %d components, equal %b; fall %d vs %d, \
         equal %b)"
        what (Circuit.net_name c id) (pe = pa) (List.length re) (List.length ra) (re = ra)
        (List.length fe) (List.length fa) (fe = fa)
  done

(* ---------- random workloads, reproducible from one seed ---------- *)

let kinds = Array.of_list Gate_kind.all

(* Random DAG over every gate kind, registers included.  Fan-in 7-8
   takes the pairwise fold above the default [max_enumerated_fanin];
   fan-in 4 enumerates (and, for XOR, compacts) — wider enumerated
   gates would only slow the record oracle down. *)
let random_circuit seed =
  let rng = Rng.create ~seed in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "momq%d" seed) () in
  let nets = ref [] in
  let n_inputs = 3 + Rng.int rng 6 in
  for i = 0 to n_inputs - 1 do
    let name = Printf.sprintf "i%d" i in
    Circuit.Builder.add_input b name;
    nets := name :: !nets
  done;
  let n_dffs = Rng.int rng 3 in
  for i = 0 to n_dffs - 1 do
    nets := Printf.sprintf "q%d" i :: !nets
  done;
  let n_gates = 15 + Rng.int rng 45 in
  for g = 0 to n_gates - 1 do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let pool = Array.of_list !nets in
    let arity =
      match kind with
      | Gate_kind.Not | Gate_kind.Buf -> 1
      | _ ->
        let u = Rng.int rng 10 in
        min (Array.length pool)
          (if u < 6 then 2 + Rng.int rng 2 else if u < 9 then 4 else 7 + Rng.int rng 2)
    in
    (* distinct operands, biased toward recent nets for depth *)
    let chosen = Hashtbl.create 8 in
    let inputs = ref [] in
    while List.length !inputs < arity do
      let k = min (Array.length pool - 1) (Rng.int rng 4 + Rng.int rng (Array.length pool)) in
      let x = pool.(if Rng.bool rng then Rng.int rng (min 6 (Array.length pool)) else k) in
      if not (Hashtbl.mem chosen x) then begin
        Hashtbl.replace chosen x ();
        inputs := x :: !inputs
      end
    done;
    let name = Printf.sprintf "g%d" g in
    Circuit.Builder.add_gate b ~output:name kind !inputs;
    nets := name :: !nets
  done;
  let gates = Array.init n_gates (Printf.sprintf "g%d") in
  for i = 0 to n_dffs - 1 do
    Circuit.Builder.add_dff b ~q:(Printf.sprintf "q%d" i) ~d:gates.(Rng.int rng n_gates)
  done;
  Circuit.Builder.add_output b gates.(n_gates - 1);
  Circuit.Builder.add_output b gates.(Rng.int rng n_gates);
  Circuit.Builder.finalize b

(* per-source statistics, some with zero-probability values (pruned
   branches) and deterministic arrivals *)
let spec_of seed id =
  let rng = Rng.stream ~seed id in
  let w () = if Rng.int rng 5 = 0 then 0.0 else 0.05 +. Rng.float rng in
  let ws = [| w (); w (); w (); w () |] in
  if Array.for_all (fun x -> x = 0.0) ws then ws.(0) <- 1.0;
  let total = Array.fold_left ( +. ) 0.0 ws in
  let arrival () =
    Normal.make ~mu:(Rng.gaussian rng ~mu:0.0 ~sigma:1.0)
      ~sigma:(if Rng.int rng 4 = 0 then 0.0 else Float.abs (Rng.gaussian rng ~mu:1.0 ~sigma:0.4))
  in
  let rise_arrival = arrival () in
  let fall_arrival = arrival () in
  Input_spec.make ~rise_arrival ~fall_arrival ~p_zero:(ws.(0) /. total) ~p_one:(ws.(1) /. total)
    ~p_rise:(ws.(2) /. total)
    ~p_fall:(1.0 -. ((ws.(0) +. ws.(1) +. ws.(2)) /. total))
    ()

let delay_of_seed seed id = 0.5 +. Rng.float (Rng.stream ~seed (2_000_000 + id))

let delay_rf_of seed id =
  let rng = Rng.stream ~seed (1_000_000 + id) in
  (0.5 +. Rng.float rng, 0.5 +. Rng.float rng)

(* ---------- the option matrix ---------- *)

type options = {
  gate_delay : float option;
  delay_of : (Circuit.id -> float) option;
  delay_rf : (Circuit.id -> float * float) option;
  delay_sigma : float option;
  mis : Mis_model.t option;
  max_enumerated_fanin : int option;
}

let options_of seed =
  let rng = Rng.stream ~seed 77 in
  let pick n = Rng.int rng n in
  { gate_delay = (if pick 2 = 0 then None else Some (0.5 +. Rng.float rng));
    delay_of = (if pick 3 = 0 then Some (delay_of_seed seed) else None);
    delay_rf = (if pick 3 = 0 then Some (delay_rf_of seed) else None);
    delay_sigma = (match pick 3 with 0 -> None | 1 -> Some 0.0 | _ -> Some (0.1 +. Rng.float rng));
    mis = (if pick 2 = 0 then None else Some (Mis_model.make ()));
    max_enumerated_fanin = (match pick 4 with 0 -> None | 1 -> Some 2 | 2 -> Some 3 | _ -> Some 4) }

let oracle o c ~spec =
  Oracle.analyze ?gate_delay:o.gate_delay ?delay_of:o.delay_of ?delay_rf:o.delay_rf
    ?delay_sigma:o.delay_sigma ?mis:o.mis ?max_enumerated_fanin:o.max_enumerated_fanin ~check:false
    c ~spec

let flat ?domains o c ~spec =
  Moments.analyze ?gate_delay:o.gate_delay ?delay_of:o.delay_of ?delay_rf:o.delay_rf
    ?delay_sigma:o.delay_sigma ?mis:o.mis ?max_enumerated_fanin:o.max_enumerated_fanin ~check:false
    ?domains c ~spec

let prop_flat_equals_oracle =
  QCheck.Test.make ~name:"flat Moments = record oracle, domains 1/2/4 (Int64-exact)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let spec = spec_of (seed + 3) in
      let o = options_of seed in
      let expected = oracle o c ~spec in
      List.iter
        (fun domains ->
          let r = flat ~domains o c ~spec in
          assert_identical (Printf.sprintf "seed %d domains %d" seed domains) c
            (oracle_bits expected) (flat_bits r))
        [ 1; 2; 4 ];
      true)

(* ---------- named paths: pairwise fold, compaction, suite circuits ---------- *)

(* how many four-value input combinations of [kind] at [arity] rise *)
let rising_rows kind arity =
  let rec go k acc =
    if k = 0 then if Value4.equal (Gate_kind.eval4 kind acc) Value4.Rising then 1 else 0
    else List.fold_left (fun n v -> n + go (k - 1) (v :: acc)) 0 Value4.all
  in
  go arity []

let wide_circuit () =
  let b = Circuit.Builder.create ~name:"wide" () in
  let ins = List.init 8 (Printf.sprintf "i%d") in
  List.iter (Circuit.Builder.add_input b) ins;
  let take n = List.filteri (fun i _ -> i < n) ins in
  Circuit.Builder.add_gate b ~output:"and8" Gate_kind.And ins;
  Circuit.Builder.add_gate b ~output:"nor7" Gate_kind.Nor (take 7);
  Circuit.Builder.add_gate b ~output:"xnor7" Gate_kind.Xnor (List.rev (take 7));
  Circuit.Builder.add_gate b ~output:"xor4" Gate_kind.Xor (take 4);
  Circuit.Builder.add_gate b ~output:"or5" Gate_kind.Or (take 5);
  Circuit.Builder.add_gate b ~output:"top" Gate_kind.Nand
    [ "and8"; "nor7"; "xnor7"; "xor4"; "or5" ];
  Circuit.Builder.add_output b "top";
  Circuit.Builder.finalize b

let test_wide_and_compacting_gates () =
  (* XOR4 enumerates more rising terms than the 16-component cap, so
     its outputs are compacted; the 7- and 8-input gates take the
     pairwise fold at the default max_enumerated_fanin of 6 *)
  Alcotest.(check bool) "xor4 terms exceed the cap" true (rising_rows Gate_kind.Xor 4 > 16);
  let c = wide_circuit () in
  let spec _ = Input_spec.case_i in
  List.iter
    (fun (label, o) ->
      let expected = oracle o c ~spec in
      let r = flat o c ~spec in
      assert_identical label c (oracle_bits expected) (flat_bits r);
      let xor4 = Moments.signal r (Circuit.find_exn c "xor4") in
      let n = List.length (Mixture.components xor4.Moments.rise) in
      Alcotest.(check int) (label ^ ": xor4 rise compacted to 16") 16 n)
    [ ("defaults",
       { gate_delay = None; delay_of = None; delay_rf = None; delay_sigma = None; mis = None;
         max_enumerated_fanin = None });
      ("mis, sigma, rf",
       { gate_delay = None; delay_of = None; delay_rf = Some (delay_rf_of 5);
         delay_sigma = Some 0.2; mis = Some (Mis_model.make ()); max_enumerated_fanin = None });
      ("pairwise from 5",
       { gate_delay = Some 2.0; delay_of = Some (delay_of_seed 9); delay_rf = None;
         delay_sigma = None; mis = Some (Mis_model.make ()); max_enumerated_fanin = Some 4 }) ]

let test_suite_circuits () =
  List.iter
    (fun name ->
      let c = Spsta_experiments.Benchmarks.load name in
      List.iter
        (fun spec ->
          let expected = Oracle.analyze c ~spec in
          List.iter
            (fun domains ->
              let r = Moments.analyze ~domains c ~spec in
              assert_identical (Printf.sprintf "%s domains=%d" name domains) c
                (oracle_bits expected) (flat_bits r))
            [ 1; 2; 4 ])
        [ (fun _ -> Input_spec.case_i); (fun _ -> Input_spec.case_ii) ])
    [ "s27"; "s344"; "s1238" ]

(* ---------- incremental update ---------- *)

let prop_update_equals_full =
  QCheck.Test.make ~name:"flat update = full oracle analysis; input untouched" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let old_spec = spec_of (seed + 3) in
      let sources = Circuit.sources c in
      let changed = List.filteri (fun i _ -> i mod 3 = seed mod 3) sources in
      let new_spec id = if List.mem id changed then spec_of (seed + 101) id else old_spec id in
      let o = options_of seed in
      let base = flat o c ~spec:old_spec in
      let before = Array.init (Circuit.num_nets c) (flat_bits base) in
      let updated =
        Moments.update ?gate_delay:o.gate_delay ?delay_of:o.delay_of ?delay_rf:o.delay_rf
          ?delay_sigma:o.delay_sigma ?mis:o.mis ?max_enumerated_fanin:o.max_enumerated_fanin
          ~check:false base ~changed ~spec:new_spec
      in
      assert_identical "update vs full" c
        (oracle_bits (oracle o c ~spec:new_spec))
        (flat_bits updated);
      assert_identical "input untouched" c (Array.get before) (flat_bits base);
      true)

(* a retyped gate can need more slots than its old kind: the update
   lays out a fresh arena, so it stays in bounds and exact *)
let test_update_after_retype () =
  let b = Circuit.Builder.create ~name:"retype" () in
  List.iter (Circuit.Builder.add_input b) [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"g" Gate_kind.And [ "a"; "b"; "c"; "d" ];
  Circuit.Builder.add_gate b ~output:"h" Gate_kind.Buf [ "g" ];
  Circuit.Builder.add_gate b ~output:"y" Gate_kind.Or [ "h"; "a" ];
  Circuit.Builder.add_output b "y";
  let c = Circuit.Builder.finalize b in
  let spec _ = Input_spec.case_i in
  let base = Moments.analyze c ~spec in
  let g = Circuit.find_exn c "g" in
  let before = Array.init (Circuit.num_nets c) (flat_bits base) in
  Circuit.retype_gate c g Gate_kind.Xor;
  let updated = Moments.update base ~changed:[ g ] ~spec in
  assert_identical "update after retype" c
    (oracle_bits (Oracle.analyze c ~spec))
    (flat_bits updated);
  Alcotest.(check bool) "xor4 needs more slots than and4" true
    (List.length (Mixture.components (Moments.signal updated g).Moments.rise)
    > List.length (Mixture.components (Moments.signal base g).Moments.rise));
  assert_identical "input untouched" c (Array.get before) (flat_bits base)

(* ---------- sanitizer parity ---------- *)

let test_sanitizer_locates_fault () =
  let c = wide_circuit () in
  let poisoned = Circuit.find_exn c "or5" in
  let delay_rf id = if id = poisoned then (Float.nan, 1.0) else (1.0, 1.0) in
  let spec _ = Input_spec.case_i in
  let violation f =
    match f () with
    | _ -> Alcotest.fail "NaN delay was not caught"
    | exception Sanitize.Violation v -> (v.net, v.driver, v.level, v.rule)
  in
  let flat = violation (fun () -> ignore (Moments.analyze ~delay_rf ~check:true c ~spec)) in
  let record = violation (fun () -> ignore (Oracle.analyze ~delay_rf ~check:true c ~spec)) in
  let net, driver, _, _ = flat in
  Alcotest.(check string) "net" "or5" net;
  Alcotest.(check string) "driver" "OR" driver;
  Alcotest.(check bool) "same violation as the record engine" true (flat = record)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_flat_equals_oracle;
    Alcotest.test_case "wide and compacting gates" `Quick test_wide_and_compacting_gates;
    Alcotest.test_case "suite circuits, domains 1/2/4" `Quick test_suite_circuits;
    QCheck_alcotest.to_alcotest prop_update_equals_full;
    Alcotest.test_case "update after retype" `Quick test_update_after_retype;
    Alcotest.test_case "sanitizer locates a fault" `Quick test_sanitizer_locates_fault;
  ]
