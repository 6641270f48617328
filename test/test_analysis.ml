(* lib/analysis: the four static passes and their orchestrator, plus
   the consumer that makes the facts pay — the sizer's prune hook.

   The randomised properties pin the passes to independent oracles:
   constant propagation against four-value logic simulation under fully
   pinned sources, probability intervals against BDD-exact signal
   probabilities, and reconvergence against circuits constructed to have
   none. *)

module Circuit = Spsta_netlist.Circuit
module Gate_kind = Spsta_logic.Gate_kind
module Value4 = Spsta_logic.Value4
module Constprop = Spsta_analysis.Constprop
module Reconvergence = Spsta_analysis.Reconvergence
module Observability = Spsta_analysis.Observability
module Crit_bounds = Spsta_analysis.Crit_bounds
module Static = Spsta_analysis.Static
module Sizer = Spsta_opt.Sizer
module Sized_library = Spsta_netlist.Sized_library

let id c name = Circuit.find_exn c name

(* a -> {b = NOT a, c = BUF a} -> d = AND(b, c): one two-branch region *)
let diamond () =
  let b = Circuit.Builder.create ~name:"diamond" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b ~output:"nb" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"cb" Gate_kind.Buf [ "a" ];
  Circuit.Builder.add_gate b ~output:"d" Gate_kind.And [ "nb"; "cb" ];
  Circuit.Builder.add_output b "d";
  Circuit.Builder.finalize b

(* ---------- random circuits ---------- *)

let comb_kinds =
  [| Gate_kind.And; Gate_kind.Nand; Gate_kind.Or; Gate_kind.Nor; Gate_kind.Xor;
     Gate_kind.Xnor; Gate_kind.Not; Gate_kind.Buf |]

(* (n_inputs, [(kind_ix, op1_raw, op2_raw)]): raw operand indices are
   reduced mod the nets available when the gate is built, so every
   generated spec is a valid combinational DAG (duplicate literals and
   arbitrary fanout/reconvergence included). *)
let gen_comb_spec =
  QCheck.Gen.(
    pair (int_range 2 4)
      (list_size (int_range 1 12) (triple (int_range 0 7) nat nat)))

let build_comb (n_in, gates) =
  let b = Circuit.Builder.create ~name:"rand" () in
  let nets = ref [] in
  for i = 0 to n_in - 1 do
    let name = Printf.sprintf "i%d" i in
    Circuit.Builder.add_input b name;
    nets := name :: !nets
  done;
  List.iteri
    (fun j (k, o1, o2) ->
      let avail = Array.of_list (List.rev !nets) in
      let n = Array.length avail in
      let kind = comb_kinds.(k mod Array.length comb_kinds) in
      let ops =
        if Gate_kind.max_arity kind = Some 1 then [ avail.(o1 mod n) ]
        else [ avail.(o1 mod n); avail.(o2 mod n) ]
      in
      let name = Printf.sprintf "g%d" j in
      Circuit.Builder.add_gate b ~output:name kind ops;
      nets := name :: !nets)
    gates;
  (match !nets with last :: _ -> Circuit.Builder.add_output b last | [] -> assert false);
  Circuit.Builder.finalize b

let comb_arbitrary =
  QCheck.make ~print:(fun (n, gs) -> Printf.sprintf "%d inputs, %d gates" n (List.length gs))
    gen_comb_spec

(* ---------- constants & intervals ---------- *)

(* With every source pinned to exactly 0 or 1, the Fréchet interval of
   every net collapses to a point and must equal the four-value logic
   simulation of the same vector — including through duplicate literals
   and reconvergence, where eq. 5-style independence would drift. *)
let constprop_matches_sim =
  QCheck.Test.make ~name:"pinned sources: constprop = logic sim" ~count:300
    QCheck.(pair comb_arbitrary (make Gen.nat))
    (fun (spec, bits) ->
      let circuit = build_comb spec in
      let pin net =
        let name = Circuit.net_name circuit net in
        let i = Scanf.sscanf name "i%d" Fun.id in
        (bits lsr i) land 1 = 1
      in
      let t = Constprop.run ~p_source:(fun s -> if pin s then 1.0 else 0.0) circuit in
      let sim =
        Spsta_sim.Logic_sim.run circuit ~source_values:(fun s ->
            ((if pin s then Value4.One else Value4.Zero), 0.0))
      in
      let ok = ref true in
      for n = 0 to Circuit.num_nets circuit - 1 do
        let expected = Value4.final sim.Spsta_sim.Logic_sim.values.(n) in
        if Constprop.const_of t n <> Some expected then ok := false
      done;
      !ok)

(* Sound intervals: the BDD-exact probability of every net lies inside
   [lo, hi], whatever the reconvergence structure. *)
let interval_contains_exact =
  QCheck.Test.make ~name:"interval contains BDD-exact probability" ~count:200 comb_arbitrary
    (fun spec ->
      let circuit = build_comb spec in
      let t = Constprop.run ~p_source:(fun _ -> 0.5) circuit in
      let bdd = Spsta_bdd.Circuit_bdd.build circuit in
      let ok = ref true in
      for n = 0 to Circuit.num_nets circuit - 1 do
        let exact = Spsta_bdd.Circuit_bdd.exact_prob_one bdd ~p_source:(fun _ -> 0.5) n in
        let lo, hi = Constprop.interval t n in
        if exact < lo -. 1e-9 || exact > hi +. 1e-9 then ok := false
      done;
      !ok)

let test_constprop_folding () =
  let b = Circuit.Builder.create ~name:"fold" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "x";
  (* a XOR a is constant 0 without any pinned source; AND with it folds *)
  Circuit.Builder.add_gate b ~output:"z" Gate_kind.Xor [ "a"; "a" ];
  Circuit.Builder.add_gate b ~output:"g" Gate_kind.And [ "z"; "x" ];
  Circuit.Builder.add_gate b ~output:"po" Gate_kind.Or [ "g"; "x" ];
  Circuit.Builder.add_output b "po";
  let circuit = Circuit.Builder.finalize b in
  let t = Constprop.run circuit in
  Alcotest.(check (option bool)) "a XOR a = 0" (Some false) (Constprop.const_of t (id circuit "z"));
  Alcotest.(check (option bool)) "AND folds through controlling 0" (Some false)
    (Constprop.const_of t (id circuit "g"));
  Alcotest.(check (option bool)) "po stays free" None (Constprop.const_of t (id circuit "po"));
  Alcotest.(check int) "two discovered constants" 2 (Constprop.num_constants t)

(* ---------- reconvergence ---------- *)

let test_reconv_diamond () =
  let circuit = diamond () in
  let t = Reconvergence.run circuit in
  Alcotest.(check int) "one region" 1 (Reconvergence.num_regions t);
  (match Reconvergence.regions t with
  | [ r ] ->
    Alcotest.(check int) "stem is a" (id circuit "a") r.Reconvergence.stem;
    Alcotest.(check int) "merge is d" (id circuit "d") r.Reconvergence.merge;
    Alcotest.(check int) "both branches remerge" 2 r.Reconvergence.width;
    Alcotest.(check int) "two levels deep" 2 r.Reconvergence.depth;
    Alcotest.(check (option int)) "two interior nets" (Some 2) r.Reconvergence.gates
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs));
  Alcotest.(check bool) "a heads the region" true (Reconvergence.is_stem t (id circuit "a"));
  Alcotest.(check bool) "merge is tainted" true (Reconvergence.tainted t (id circuit "d"));
  Alcotest.(check bool) "branches are not" false (Reconvergence.tainted t (id circuit "nb"))

(* fanout-1 spec: each gate consumes nets that nothing else will ever
   consume (fresh inputs or previously unconsumed outputs), so no stem
   exists anywhere *)
let gen_tree_spec = QCheck.Gen.(list_size (int_range 1 10) (pair (int_range 0 5) nat))

let build_tree spec =
  let b = Circuit.Builder.create ~name:"tree" () in
  let pool = Queue.create () in
  let n_in = ref 0 in
  let fresh () =
    incr n_in;
    let s = Printf.sprintf "i%d" !n_in in
    Circuit.Builder.add_input b s;
    s
  in
  let take raw = if (not (Queue.is_empty pool)) && raw land 1 = 1 then Queue.pop pool else fresh () in
  List.iteri
    (fun j (k, raw) ->
      let kind = comb_kinds.(k mod 6) (* binary kinds only *) in
      let x = take raw and y = take (raw lsr 1) in
      let name = Printf.sprintf "g%d" j in
      Circuit.Builder.add_gate b ~output:name kind [ x; y ];
      Queue.push name pool)
    spec;
  Queue.iter (fun n -> Circuit.Builder.add_output b n) pool;
  Circuit.Builder.finalize b

let tree_has_no_regions =
  QCheck.Test.make ~name:"fanout-1 trees have zero regions" ~count:300
    (QCheck.make ~print:(fun s -> Printf.sprintf "%d gates" (List.length s)) gen_tree_spec)
    (fun spec ->
      let circuit = build_tree spec in
      let t = Reconvergence.run circuit in
      Reconvergence.num_regions t = 0 && Reconvergence.num_tainted t = 0)

(* ---------- observability ---------- *)

let test_observability_constant_blocking () =
  let b = Circuit.Builder.create ~name:"blocked" () in
  Circuit.Builder.add_input b "zero";
  Circuit.Builder.add_input b "x";
  Circuit.Builder.add_input b "y";
  Circuit.Builder.add_gate b ~output:"nx" Gate_kind.Not [ "x" ];
  Circuit.Builder.add_gate b ~output:"g" Gate_kind.And [ "zero"; "nx" ];
  Circuit.Builder.add_gate b ~output:"po" Gate_kind.Or [ "g"; "y" ];
  Circuit.Builder.add_output b "po";
  let circuit = Circuit.Builder.finalize b in
  let consts =
    Constprop.run ~p_source:(fun s -> if Circuit.net_name circuit s = "zero" then 0.0 else 0.5)
      circuit
  in
  let t = Observability.run ~constants:consts circuit in
  Alcotest.(check bool) "nx is dead behind the constant AND" false
    (Observability.observable t (id circuit "nx"));
  Alcotest.(check bool) "po observable" true (Observability.observable t (id circuit "po"));
  (* nx is the strict improvement: structurally alive, killed only by
     the constant fact; g itself is a constant, so it is constprop's
     finding, not this pass's *)
  Alcotest.(check (list int)) "sharpened = [nx]" [ id circuit "nx" ] (Observability.sharpened t);
  (* without constant facts the pass degrades to structural reachability *)
  let structural = Observability.run circuit in
  Alcotest.(check int) "no structural dead logic here" 0 (Observability.num_dead structural);
  Alcotest.(check int) "so nothing sharpened either" 0 (Observability.num_sharpened structural)

(* ---------- criticality bounds ---------- *)

let test_crit_bounds_unit_delay () =
  let b = Circuit.Builder.create ~name:"crit" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "s";
  Circuit.Builder.add_gate b ~output:"g1" Gate_kind.Not [ "a" ];
  Circuit.Builder.add_gate b ~output:"g2" Gate_kind.Not [ "g1" ];
  Circuit.Builder.add_gate b ~output:"g3" Gate_kind.Not [ "g2" ];
  Circuit.Builder.add_gate b ~output:"h1" Gate_kind.Not [ "s" ];
  Circuit.Builder.add_output b "g3";
  Circuit.Builder.add_output b "h1";
  let circuit = Circuit.Builder.finalize b in
  let t = Crit_bounds.run circuit in
  Alcotest.(check (float 1e-12)) "t_lb is the long chain" 3.0 (Crit_bounds.t_lb t);
  let lo, hi = Crit_bounds.arrival_bounds t (id circuit "g2") in
  Alcotest.(check bool) "unit-delay bounds collapse to the level" true (lo = 2.0 && hi = 2.0);
  Alcotest.(check bool) "short branch can never be critical" true
    (Crit_bounds.never_critical t (id circuit "h1"));
  Alcotest.(check bool) "chain gates stay candidates" false
    (Crit_bounds.never_critical t (id circuit "g1"));
  Alcotest.(check int) "exactly the short branch" 1 (Crit_bounds.num_never_critical t)

let test_sizer_prune () =
  let b = Circuit.Builder.create ~name:"prune" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "c";
  Circuit.Builder.add_gate b ~output:"g1" Gate_kind.And [ "a"; "c" ];
  Circuit.Builder.add_gate b ~output:"g2" Gate_kind.Or [ "g1"; "c" ];
  Circuit.Builder.add_gate b ~output:"po" Gate_kind.Not [ "g2" ];
  Circuit.Builder.add_output b "po";
  let circuit = Circuit.Builder.finalize b in
  let sized = Sized_library.default in
  (* prune everything: phase A must commit no upsize, and every rejected
     candidate is counted *)
  let report = Sizer.run ~prune:(fun _ -> true) sized circuit in
  Alcotest.(check bool) "rejections counted" true (report.Sizer.pruned > 0);
  Alcotest.(check bool) "no upsize survives a total prune" true
    (List.for_all (fun m -> m.Sizer.direction = `Down) report.Sizer.moves);
  let free = Sizer.run sized circuit in
  Alcotest.(check int) "no prune, no rejections" 0 free.Sizer.pruned

(* ---------- orchestrator ---------- *)

let test_static_orchestrator () =
  let circuit = diamond () in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "pass name %s round-trips" (Static.pass_name p))
        true
        (Static.pass_of_name (Static.pass_name p) = Some p))
    Static.all_passes;
  Alcotest.(check bool) "unknown pass rejected" true (Static.pass_of_name "bogus" = None);
  let only_const = Static.run ~passes:[ `Constants ] circuit in
  Alcotest.(check bool) "selected pass ran" true (only_const.Static.constants <> None);
  Alcotest.(check bool) "unselected passes did not" true
    (only_const.Static.reconvergence = None && only_const.Static.criticality = None);
  let all = Static.run circuit in
  let names = List.map fst (Static.fact_counts all) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (Printf.sprintf "fact %s reported" expected) true
        (List.mem expected names))
    [ "constants"; "bounded_nets"; "reconvergent_regions"; "tainted_nets";
      "unobservable_gates"; "sharpened_dead"; "never_critical_gates" ];
  Alcotest.(check int) "total is the sum" (List.fold_left (fun a (_, c) -> a + c) 0
      (Static.fact_counts all))
    (Static.total_facts all)

(* ---------- every fact pinned ---------- *)

(* A generated netlist with a feedback gadget appended: [fb_k0 = a XOR a]
   is a structural constant that reaches a flip-flop chain, so the
   register boundary narrows one more Q per round, and [fb_q3] feeds
   itself through [fb_k3].  No generated netlist alone needs a second
   constprop round (the generator draws distinct fan-ins, and without
   structural constants every unpinned interval stays [0,1]). *)
let feedback_circuit () =
  let profile =
    { Spsta_netlist.Generator.name = "genfb"; n_inputs = 8; n_outputs = 6; n_dffs = 10;
      n_gates = 240; target_depth = 12; seed = 5 }
  in
  let gen = Spsta_netlist.Generator.generate profile in
  let a = Circuit.net_name gen (List.hd (Circuit.primary_inputs gen)) in
  let b = Circuit.net_name gen (List.nth (Circuit.primary_inputs gen) 1) in
  let gadget =
    String.concat "\n"
      [ Printf.sprintf "fb_k0 = XOR(%s, %s)" a a;
        "fb_q0 = DFF(fb_k0)";
        Printf.sprintf "fb_k1 = AND(fb_q0, %s)" b;
        "fb_q1 = DFF(fb_k1)";
        "fb_k2 = NOR(fb_q1, fb_q1)";
        "fb_q2 = DFF(fb_k2)";
        "fb_k3 = OR(fb_q2, fb_q3)";
        "fb_q3 = DFF(fb_k3)";
        Printf.sprintf "fb_po = NAND(fb_k3, %s)" b;
        "OUTPUT(fb_po)";
        "" ]
  in
  Spsta_netlist.Bench_io.parse_string ~name:"genfb"
    (Spsta_netlist.Bench_io.to_string gen ^ "\n" ^ gadget)

(* Every fact of the four passes on s344, s5378, s9234 and the feedback
   circuit, one tab-separated line per net plus per-circuit summaries,
   floats as hex (exact bits).  Per net: constprop [lo, hi] without and
   with [p_source]; observability under each constant set and
   structural reachability, taint and stem marks; arrival bounds and
   never-critical under unit delays and under every drive strength of
   the default size groups. *)
let static_fact_rows () =
  let p_source s =
    match s mod 7 with 0 -> 0.0 | 1 -> 1.0 | k -> float_of_int k /. 8.0
  in
  let circuits =
    [ Spsta_experiments.Benchmarks.load "s344" ]
    @ List.map
        (fun n ->
          Spsta_netlist.Generator.generate (Option.get (Spsta_netlist.Generator.find_profile n)))
        [ "s5378"; "s9234" ]
    @ [ feedback_circuit () ]
  in
  let rows = ref [] in
  let row fmt = Printf.ksprintf (fun l -> rows := l :: !rows) fmt in
  let bit b = if b then '1' else '0' in
  List.iter
    (fun c ->
      let sized = Crit_bounds.bounds_of_sized Sized_library.default c in
      let cp = Constprop.run c and cp_p = Constprop.run ~p_source c in
      let obs = Observability.run ~constants:cp c in
      let obs_p = Observability.run ~constants:cp_p c in
      let rc = Reconvergence.run c in
      let cb = Crit_bounds.run c and cb_s = Crit_bounds.run ~delay_bounds:sized c in
      row "circuit\t%s\t%d nets" (Circuit.name c) (Circuit.num_nets c);
      for n = 0 to Circuit.num_nets c - 1 do
        let lo, hi = Constprop.interval cp n and plo, phi = Constprop.interval cp_p n in
        let amin, amax = Crit_bounds.arrival_bounds cb n in
        let smin, smax = Crit_bounds.arrival_bounds cb_s n in
        row "%s\t%h\t%h\t%h\t%h\t%c%c%c%c%c%c%c\t%h\t%h\t%h\t%h" (Circuit.net_name c n) lo hi plo
          phi
          (bit (Observability.observable obs n))
          (bit (Observability.observable obs_p n))
          (bit (Observability.reachable obs n))
          (bit (Reconvergence.tainted rc n))
          (bit (Reconvergence.is_stem rc n))
          (bit (Crit_bounds.never_critical cb n))
          (bit (Crit_bounds.never_critical cb_s n))
          amin amax smin smax
      done;
      List.iter
        (fun (r : Reconvergence.region) ->
          row "region\t%s\t%s\t%d\t%d\t%s" (Circuit.net_name c r.Reconvergence.stem)
            (Circuit.net_name c r.Reconvergence.merge) r.Reconvergence.width
            r.Reconvergence.depth
            (match r.Reconvergence.gates with None -> "capped" | Some g -> string_of_int g))
        (Reconvergence.regions rc);
      row "t_lb\t%h\t%h" (Crit_bounds.t_lb cb) (Crit_bounds.t_lb cb_s);
      let counts t =
        String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Static.fact_counts t))
      in
      row "facts\t%s" (counts (Static.run c));
      row "facts p_source sized\t%s"
        (counts (Static.run ~p_source ~delay_bounds:sized c)))
    circuits;
  List.rev !rows

let test_static_facts_pinned () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "golden/static_facts.tsv" in
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
  first_diff 1 (expected, static_fact_rows ())

let suite =
  [ Alcotest.test_case "constprop: structural folding" `Quick test_constprop_folding;
    QCheck_alcotest.to_alcotest constprop_matches_sim;
    QCheck_alcotest.to_alcotest interval_contains_exact;
    Alcotest.test_case "reconvergence: diamond region" `Quick test_reconv_diamond;
    QCheck_alcotest.to_alcotest tree_has_no_regions;
    Alcotest.test_case "observability: constant-blocked cone" `Quick
      test_observability_constant_blocking;
    Alcotest.test_case "crit bounds: unit-delay chain" `Quick test_crit_bounds_unit_delay;
    Alcotest.test_case "sizer: prune hook" `Quick test_sizer_prune;
    Alcotest.test_case "static: orchestrator" `Quick test_static_orchestrator;
    Alcotest.test_case "static: every fact pinned" `Quick test_static_facts_pinned ]
