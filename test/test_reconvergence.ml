(* The linear region walk of Reconvergence.run against the walk it
   replaced (Reconvergence_oracle, kept verbatim): the same regions in
   the same order and, on every net, the same taint and stem mark, at
   caps 0, 1, 8, 64 and a random one.  The
   circuits are the bundled suite, random Generator netlists, a banded
   grid with repeated fan-in whose cones outgrow the cap on nearly every
   walk, and a fork that overflows the cap at its branches.  A wide-stem
   case bounds the walk's cost in a stem's fan-out. *)

module Circuit = Spsta_netlist.Circuit
module Generator = Spsta_netlist.Generator
module Gate_kind = Spsta_logic.Gate_kind
module Reconvergence = Spsta_analysis.Reconvergence
module Static = Spsta_analysis.Static
module Lint = Spsta_lint.Lint
module Oracle = Reconvergence_oracle

let caps = [ 0; 1; 8; 64 ]

(* [None] when the pass and the oracle agree, else the first difference *)
let disagreement ~cap circuit =
  let t = Reconvergence.run ~region_gate_cap:cap circuit in
  let o = Oracle.run ~region_gate_cap:cap circuit in
  let net id = Circuit.net_name circuit id in
  let rec first_net id =
    if id >= Circuit.num_nets circuit then None
    else if Reconvergence.tainted t id <> Oracle.tainted o id then
      Some (Printf.sprintf "tainted differs on %s" (net id))
    else if Reconvergence.is_stem t id <> Oracle.is_stem o id then
      Some (Printf.sprintf "is_stem differs on %s" (net id))
    else first_net (id + 1)
  in
  if Reconvergence.regions t <> Oracle.regions o then
    Some
      (Printf.sprintf "regions differ (%d vs oracle %d)" (Reconvergence.num_regions t)
         (List.length (Oracle.regions o)))
  else if Reconvergence.num_tainted t <> Oracle.num_tainted o then
    Some
      (Printf.sprintf "num_tainted %d vs oracle %d" (Reconvergence.num_tainted t)
         (Oracle.num_tainted o))
  else first_net 0

let check_agrees ~cap circuit =
  match disagreement ~cap circuit with
  | None -> ()
  | Some d -> Alcotest.failf "%s at cap %d: %s" (Circuit.name circuit) cap d

(* [depth] levels of [width] gates over [width] sources (one primary
   input in four, the rest flip-flops closing the last level back onto
   the first).  Gate (l, x) reads its spine (l-1, x) plus one to three
   nets up to three levels back within [reach] columns, drawn with
   replacement so fan-in repeats; every cone widens by about [reach]
   columns per level and soon outgrows the walk cap. *)
let banded_grid ~seed ~width ~depth ~reach =
  let st = Random.State.make [| seed; width; depth; reach |] in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "grid%d" seed) () in
  let net l x =
    if l > 0 then Printf.sprintf "g%d_%d" l x
    else if x mod 4 = 0 then Printf.sprintf "i%d" x
    else Printf.sprintf "q%d" x
  in
  for x = 0 to width - 1 do
    if x mod 4 = 0 then Circuit.Builder.add_input b (net 0 x)
    else Circuit.Builder.add_dff b ~q:(net 0 x) ~d:(net depth x)
  done;
  for l = 1 to depth do
    for x = 0 to width - 1 do
      let side =
        List.init
          (Random.State.int st 4)
          (fun _ ->
            let l' = max 0 (l - 1 - Random.State.int st 3) in
            let d = Random.State.int st ((2 * reach) + 1) - reach in
            net l' ((x + d + width) mod width))
      in
      let kind =
        if side = [] then if Random.State.bool st then Gate_kind.Not else Gate_kind.Buf
        else [| Gate_kind.Nand; Gate_kind.Nor; Gate_kind.And; Gate_kind.Or; Gate_kind.Xor |].(
          Random.State.int st 5)
      in
      Circuit.Builder.add_gate b ~output:(net l x) kind (net (l - 1) x :: side)
    done
  done;
  for x = 0 to width - 1 do
    if x mod 4 = 0 then Circuit.Builder.add_output b (net depth x)
  done;
  Circuit.Builder.finalize b

let test_suite_agrees () =
  let extended =
    List.map (fun name -> Generator.generate (Option.get (Generator.find_profile name)))
      [ "s5378"; "s9234" ]
  in
  List.iter
    (fun circuit -> List.iter (fun cap -> check_agrees ~cap circuit) (caps @ [ 3; 200 ]))
    (Spsta_experiments.Benchmarks.all () @ extended)

let test_grid_agrees () =
  List.iter
    (fun seed ->
      let circuit = banded_grid ~seed ~width:48 ~depth:14 ~reach:4 in
      List.iter (fun cap -> check_agrees ~cap circuit) (caps @ [ 5 + seed ]))
    [ 1; 2; 3 ]

(* the grid's walks do hit the cap: gates = None is common at 64 *)
let test_grid_overflows () =
  let circuit = banded_grid ~seed:1 ~width:48 ~depth:14 ~reach:4 in
  let regions = Reconvergence.regions (Reconvergence.run circuit) in
  let capped = List.filter (fun r -> r.Reconvergence.gates = None) regions in
  Alcotest.(check bool)
    (Printf.sprintf "most walks overflow (%d of %d)" (List.length capped)
       (List.length regions))
    true
    (2 * List.length capped > List.length regions)

(* a feeds g1, g2 = AND(a, g1) and g3: at cap 2 the third branch does
   not fit, so the region merging at g2 is capped although the walk
   never leaves the branches *)
let test_overflow_at_branches () =
  let b = Circuit.Builder.create ~name:"fork3" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"g1" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"g2" Gate_kind.And [ "a"; "g1" ];
  Circuit.Builder.add_gate b ~output:"g3" Gate_kind.Buf [ "a" ];
  Circuit.Builder.add_output b "g2";
  Circuit.Builder.add_output b "g3";
  let circuit = Circuit.Builder.finalize b in
  List.iter (fun cap -> check_agrees ~cap circuit) [ 0; 1; 2; 3; 4 ];
  let gates cap =
    List.map (fun r -> r.Reconvergence.gates)
      (Reconvergence.regions (Reconvergence.run ~region_gate_cap:cap circuit))
  in
  Alcotest.(check (list (option int))) "capped at 2" [ None ] (gates 2);
  Alcotest.(check (list (option int))) "complete at 3" [ Some 2 ] (gates 3)

let gen_profile =
  QCheck.Gen.(
    map
      (fun ((n_inputs, n_outputs, n_dffs), (extra, target_depth, seed)) ->
        { Generator.name = Printf.sprintf "rand%d" seed; n_inputs = n_inputs + 1; n_outputs;
          n_dffs; n_gates = target_depth + extra; target_depth; seed })
      (pair
         (triple (int_range 0 8) (int_range 1 6) (int_range 0 5))
         (triple (int_range 0 120) (int_range 1 10) nat)))

let random_netlists_agree =
  QCheck.Test.make ~name:"random netlists: pass = oracle at every cap" ~count:150
    (QCheck.make
       ~print:(fun (p, cap) ->
         Printf.sprintf "%d in, %d dff, %d gates, depth %d, seed %d, cap %d" p.Generator.n_inputs
           p.Generator.n_dffs p.Generator.n_gates p.Generator.target_depth p.Generator.seed cap)
       QCheck.Gen.(pair gen_profile (int_range 0 100)))
    (fun (profile, cap) ->
      let circuit = Generator.generate profile in
      List.for_all (fun cap -> disagreement ~cap circuit = None) (cap :: caps))

(* One input [a] feeding 100k NAND gates that each also read [b], all
   primary outputs, plus one AND remerging the first two: exactly two
   regions (stems a and b, merging at the AND).  The walk must be linear
   in a stem's fan-out — the walk it replaced was quadratic and needed
   minutes at this fan-out. *)
let test_wide_stem () =
  let fanout = 100_000 in
  let b = Circuit.Builder.create ~name:"wide" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  for i = 0 to fanout - 1 do
    let y = Printf.sprintf "y%d" i in
    Circuit.Builder.add_gate b ~output:y Gate_kind.Nand [ "a"; "b" ];
    Circuit.Builder.add_output b y
  done;
  Circuit.Builder.add_gate b ~output:"m" Gate_kind.And [ "y0"; "y1" ];
  Circuit.Builder.add_output b "m";
  let circuit = Circuit.Builder.finalize b in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_static, s = timed (fun () -> Static.run circuit) in
  let regions =
    match s.Static.reconvergence with Some r -> Reconvergence.regions r | None -> []
  in
  Alcotest.(check (list (pair int int)))
    "stems a and b remerge at m"
    [ (Circuit.find_exn circuit "a", Circuit.find_exn circuit "m");
      (Circuit.find_exn circuit "b", Circuit.find_exn circuit "m") ]
    (List.map (fun r -> (r.Reconvergence.stem, r.Reconvergence.merge)) regions);
  Alcotest.(check bool) (Printf.sprintf "static in %.2fs < 5s" t_static) true (t_static < 5.0);
  let t_lint, findings = timed (fun () -> Lint.check_circuit circuit) in
  let reconv = List.filter (fun f -> f.Lint.rule = "reconvergent-fanout") findings in
  Alcotest.(check (list bool))
    "lint counts two regions" [ true ]
    (List.map
       (fun f -> String.starts_with ~prefix:"2 reconvergent fanout regions" f.Lint.message)
       reconv);
  Alcotest.(check bool) (Printf.sprintf "lint in %.2fs < 5s" t_lint) true (t_lint < 5.0)

let suite =
  [ Alcotest.test_case "bundled suite: pass = oracle" `Quick test_suite_agrees;
    Alcotest.test_case "banded grid: pass = oracle" `Quick test_grid_agrees;
    Alcotest.test_case "banded grid: walks overflow the cap" `Quick test_grid_overflows;
    Alcotest.test_case "overflow at the branches" `Quick test_overflow_at_branches;
    QCheck_alcotest.to_alcotest random_netlists_agree;
    Alcotest.test_case "wide stem: linear in fan-out" `Quick test_wide_stem ]
