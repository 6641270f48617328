module Truth = Spsta_logic.Truth
module Gate_kind = Spsta_logic.Gate_kind

let test_var () =
  let x1 = Truth.var ~arity:3 1 in
  Alcotest.(check bool) "x1 at 010" true (Truth.eval x1 0b010);
  Alcotest.(check bool) "x1 at 101" false (Truth.eval x1 0b101)

let test_var_invalid () =
  Alcotest.check_raises "out of range" (Invalid_argument "Truth.var: index out of range")
    (fun () -> ignore (Truth.var ~arity:2 2))

let test_const () =
  Alcotest.(check bool) "true const" true (Truth.eval (Truth.const ~arity:2 true) 0b11);
  Alcotest.(check int) "true count" 4 (Truth.count_ones (Truth.const ~arity:2 true));
  Alcotest.(check int) "false count" 0 (Truth.count_ones (Truth.const ~arity:2 false))

let test_of_gate () =
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  Alcotest.(check int) "AND has one minterm" 1 (Truth.count_ones and2);
  Alcotest.(check bool) "AND(1,1)" true (Truth.eval and2 0b11);
  let nor3 = Truth.of_gate Gate_kind.Nor ~arity:3 in
  Alcotest.(check int) "NOR3 has one minterm" 1 (Truth.count_ones nor3);
  Alcotest.(check bool) "NOR3(0,0,0)" true (Truth.eval nor3 0b000)

let test_connectives () =
  let a = Truth.var ~arity:2 0 and b = Truth.var ~arity:2 1 in
  Alcotest.(check bool) "and equal to gate" true
    (Truth.equal (Truth.land2 a b) (Truth.of_gate Gate_kind.And ~arity:2));
  Alcotest.(check bool) "or equal to gate" true
    (Truth.equal (Truth.lor2 a b) (Truth.of_gate Gate_kind.Or ~arity:2));
  Alcotest.(check bool) "xor equal to gate" true
    (Truth.equal (Truth.lxor2 a b) (Truth.of_gate Gate_kind.Xor ~arity:2));
  Alcotest.(check bool) "double negation" true (Truth.equal a (Truth.lnot (Truth.lnot a)))

let test_cofactor () =
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  (* AND|x0=1 = x1; AND|x0=0 = false *)
  Alcotest.(check bool) "positive cofactor" true
    (Truth.equal (Truth.cofactor and2 0 true) (Truth.var ~arity:2 1));
  Alcotest.(check bool) "negative cofactor" true
    (Truth.equal (Truth.cofactor and2 0 false) (Truth.const ~arity:2 false))

let test_boolean_difference () =
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  (* d(AND)/dx0 = x1 *)
  Alcotest.(check bool) "AND difference" true
    (Truth.equal (Truth.boolean_difference and2 0) (Truth.var ~arity:2 1));
  let xor2 = Truth.of_gate Gate_kind.Xor ~arity:2 in
  (* XOR always propagates *)
  Alcotest.(check bool) "XOR difference is 1" true
    (Truth.equal (Truth.boolean_difference xor2 0) (Truth.const ~arity:2 true))

let test_depends_on () =
  let a = Truth.var ~arity:3 0 in
  Alcotest.(check bool) "depends on own var" true (Truth.depends_on a 0);
  Alcotest.(check bool) "independent of others" false (Truth.depends_on a 2)

let test_prob_one_and () =
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  Alcotest.(check (float 1e-12)) "P(AND) = p1 p2" 0.15 (Truth.prob_one and2 [| 0.5; 0.3 |]);
  let or2 = Truth.of_gate Gate_kind.Or ~arity:2 in
  Alcotest.(check (float 1e-12)) "P(OR) = p1+p2-p1p2" 0.65 (Truth.prob_one or2 [| 0.5; 0.3 |])

let test_prob_one_validation () =
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Truth.prob_one: probability arity mismatch") (fun () ->
      ignore (Truth.prob_one and2 [| 0.5 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Truth.prob_one: probability outside [0,1]") (fun () ->
      ignore (Truth.prob_one and2 [| 0.5; 1.5 |]))

let test_max_arity_guard () =
  Alcotest.check_raises "arity cap" (Invalid_argument "Truth.create: arity out of range")
    (fun () -> ignore (Truth.create ~arity:25 (fun _ -> false)))

(* shannon expansion: f = x_i f|x_i=1 + !x_i f|x_i=0 *)
let shannon_expansion =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 2) (array_size (return 8) bool))
  in
  QCheck.Test.make ~name:"Shannon expansion" ~count:300 (QCheck.make gen)
    (fun (i, table) ->
      let f = Truth.create ~arity:3 (fun a -> table.(a)) in
      let xi = Truth.var ~arity:3 i in
      let expansion =
        Truth.lor2
          (Truth.land2 xi (Truth.cofactor f i true))
          (Truth.land2 (Truth.lnot xi) (Truth.cofactor f i false))
      in
      Truth.equal f expansion)

(* prob_one on a uniform distribution is count_ones / 2^n *)
let prob_uniform =
  QCheck.Test.make ~name:"prob_one at p=1/2 counts minterms" ~count:300
    QCheck.(array_of_size (Gen.return 8) bool)
    (fun table ->
      let f = Truth.create ~arity:3 (fun a -> table.(a)) in
      let p = Truth.prob_one f [| 0.5; 0.5; 0.5 |] in
      Float.abs (p -. (float_of_int (Truth.count_ones f) /. 8.0)) < 1e-12)

(* boolean difference of an inverting gate matches its base gate *)
let diff_invariant_under_inversion =
  QCheck.Test.make ~name:"boolean difference invariant under output inversion" ~count:100
    QCheck.(pair (int_range 0 1) (array_of_size (Gen.return 4) bool))
    (fun (i, table) ->
      let f = Truth.create ~arity:2 (fun a -> table.(a)) in
      Truth.equal (Truth.boolean_difference f i) (Truth.boolean_difference (Truth.lnot f) i))

(* the row products of this OR3 sum to 1.0000000000000002 unclamped *)
let overshooting_or3 = [| 0.9952932513203744; 0.06708709781032629; 0.999999999999996 |]

let test_prob_one_clamped () =
  let or3 = Truth.of_gate Gate_kind.Or ~arity:3 in
  let p = Truth.prob_one or3 overshooting_or3 in
  Alcotest.(check bool) (Printf.sprintf "P(OR3) = %.17g within [0, 1]" p) true (p <= 1.0);
  Alcotest.(check (float 0.0)) "clamped to exactly 1" 1.0 p;
  (* an in-range result is untouched, bit for bit *)
  let and2 = Truth.of_gate Gate_kind.And ~arity:2 in
  Alcotest.(check bool) "AND2 bit-identical" true
    (Int64.equal (Int64.bits_of_float (Truth.prob_one and2 [| 0.3; 0.7 |]))
       (Int64.bits_of_float ((0.3 *. 0.7) +. 0.0)))

let suite =
  [
    Alcotest.test_case "prob_one clamped into [0, 1]" `Quick test_prob_one_clamped;
    Alcotest.test_case "var" `Quick test_var;
    Alcotest.test_case "var validation" `Quick test_var_invalid;
    Alcotest.test_case "const" `Quick test_const;
    Alcotest.test_case "of_gate" `Quick test_of_gate;
    Alcotest.test_case "connectives" `Quick test_connectives;
    Alcotest.test_case "cofactor" `Quick test_cofactor;
    Alcotest.test_case "boolean difference" `Quick test_boolean_difference;
    Alcotest.test_case "depends_on" `Quick test_depends_on;
    Alcotest.test_case "prob_one closed forms" `Quick test_prob_one_and;
    Alcotest.test_case "prob_one validation" `Quick test_prob_one_validation;
    Alcotest.test_case "arity cap" `Quick test_max_arity_guard;
    QCheck_alcotest.to_alcotest shannon_expansion;
    QCheck_alcotest.to_alcotest prob_uniform;
    QCheck_alcotest.to_alcotest diff_invariant_under_inversion;
  ]
