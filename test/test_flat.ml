(* The flat struct-of-arrays kernel (Spsta_engine.Flat) against the
   boxed record engine: Int64-exact bit-identity across engines and
   domain counts on randomly generated circuits, dirty-cone update
   equivalence (single updates and chains of in-place ECO mutations),
   sanitizer parity against the float slots, and the
   bench-history regression detector that guards the kernel's numbers. *)

module Circuit = Spsta_netlist.Circuit
module Generator = Spsta_netlist.Generator
module Gate_kind = Spsta_logic.Gate_kind
module Sized = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Sta = Spsta_ssta.Sta
module Sanitize = Spsta_engine.Propagate.Sanitize
module Rng = Spsta_util.Rng
module Json = Spsta_server.Json

let bits = Int64.bits_of_float

let arrival_bits (a : Ssta.arrival) =
  ( bits (Normal.mean a.Ssta.rise),
    bits (Normal.stddev a.Ssta.rise),
    bits (Normal.mean a.Ssta.fall),
    bits (Normal.stddev a.Ssta.fall) )

let assert_ssta_identical what c a b =
  for i = 0 to Circuit.num_nets c - 1 do
    let xa = Ssta.arrival a i and xb = Ssta.arrival b i in
    if arrival_bits xa <> arrival_bits xb then
      Alcotest.failf "%s: net %s differs: rise %.17g/%.17g vs %.17g/%.17g, fall %.17g/%.17g vs %.17g/%.17g"
        what (Circuit.net_name c i) (Normal.mean xa.Ssta.rise) (Normal.stddev xa.Ssta.rise)
        (Normal.mean xb.Ssta.rise) (Normal.stddev xb.Ssta.rise) (Normal.mean xa.Ssta.fall)
        (Normal.stddev xa.Ssta.fall) (Normal.mean xb.Ssta.fall) (Normal.stddev xb.Ssta.fall)
  done

let assert_sta_identical what c bounds_a bounds_b =
  for i = 0 to Circuit.num_nets c - 1 do
    let xa = bounds_a i and xb = bounds_b i in
    if bits xa.Sta.earliest <> bits xb.Sta.earliest || bits xa.Sta.latest <> bits xb.Sta.latest
    then
      Alcotest.failf "%s: net %s differs: [%.17g, %.17g] vs [%.17g, %.17g]" what
        (Circuit.net_name c i) xa.Sta.earliest xa.Sta.latest xb.Sta.earliest xb.Sta.latest
  done

(* ---------- random workloads, reproducible from one seed ---------- *)

let random_circuit seed =
  let rng = Rng.create ~seed in
  Generator.generate
    { Generator.name = Printf.sprintf "flatq%d" seed;
      n_inputs = 3 + Rng.int rng 8;
      n_outputs = 2 + Rng.int rng 5;
      n_dffs = Rng.int rng 6;
      n_gates = 30 + Rng.int rng 170;
      target_depth = 3 + Rng.int rng 8;
      seed }

(* Per-net functions must be pure (the engines may consult them in any
   order), so each net gets its own O(1) substream. *)
let arrival_of seed id =
  let rng = Rng.stream ~seed id in
  let normal () =
    let mu = Rng.gaussian rng ~mu:0.5 ~sigma:1.0 in
    Normal.make ~mu ~sigma:(Float.abs (Rng.gaussian rng ~mu:0.8 ~sigma:0.5))
  in
  let rise = normal () in
  let fall = normal () in
  { Ssta.rise; fall }

let delay_rf_of seed id =
  let rng = Rng.stream ~seed (1_000_000 + id) in
  ( Float.abs (Rng.gaussian rng ~mu:1.0 ~sigma:0.3),
    Float.abs (Rng.gaussian rng ~mu:1.2 ~sigma:0.3) )

(* ---------- bit-identity: record vs flat, sequential vs parallel ---------- *)

let prop_engines_bit_identical =
  QCheck.Test.make ~name:"flat = record, sequential = parallel (SSTA, Int64-exact)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let input_arrival_of = arrival_of (seed + 17) in
      let delay_rf = delay_rf_of (seed + 23) in
      let record = Ssta.analyze_rf ~delay_rf ~input_arrival_of ~engine:`Record c in
      let flat = Ssta.analyze ~delay_rf ~input_arrival_of c in
      assert_ssta_identical "record vs flat" c record flat;
      List.iter
        (fun domains ->
          let par = Ssta.analyze ~delay_rf ~input_arrival_of ~domains c in
          assert_ssta_identical (Printf.sprintf "flat seq vs domains=%d" domains) c flat par)
        [ 2; 3; 4 ];
      true)

(* the acceptance matrix on real netlists: uniform delays, domains 1/2/4 *)
let test_engines_identical_suite () =
  List.iter
    (fun name ->
      let c = Spsta_experiments.Benchmarks.load name in
      let record = Ssta.analyze_rf ~engine:`Record ~delay_rf:(fun _ -> (1.0, 1.0)) c in
      List.iter
        (fun domains ->
          let flat = Ssta.analyze ~domains c in
          assert_ssta_identical (Printf.sprintf "%s domains=%d" name domains) c record flat)
        [ 1; 2; 4 ])
    [ "s344"; "s1238" ]

let prop_sta_bit_identical =
  QCheck.Test.make ~name:"flat = record (STA corner bounds, Int64-exact)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let gate_delay_of id = fst (delay_rf_of (seed + 5) id) in
      let input_bounds_of id =
        let rng = Rng.stream ~seed:(seed + 11) id in
        let lo = Rng.gaussian rng ~mu:(-1.0) ~sigma:1.0 in
        { Sta.earliest = lo; latest = lo +. Float.abs (Rng.gaussian rng ~mu:2.0 ~sigma:1.0) }
      in
      let record = Sta_oracle.analyze ~gate_delay_of ~input_bounds_of c in
      let flat = Sta.analyze ~gate_delay_of ~input_bounds_of c in
      assert_sta_identical "record vs flat" c (Sta_oracle.bounds record) (Sta.bounds flat);
      List.iter
        (fun domains ->
          let par = Sta.analyze ~gate_delay_of ~input_bounds_of ~domains c in
          assert_sta_identical (Printf.sprintf "flat seq vs domains=%d" domains) c
            (Sta.bounds flat) (Sta.bounds par))
        [ 2; 4 ];
      true)

(* ---------- incremental update: dirty cone equivalence ---------- *)

let prop_update_equivalent =
  QCheck.Test.make ~name:"update_rf = full re-analysis (flat and record, Int64-exact)" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let old_arrival_of = arrival_of (seed + 17) in
      let delay_rf = delay_rf_of (seed + 23) in
      let sources = Circuit.sources c in
      let changed = List.nth sources (seed mod List.length sources) in
      let new_arrival_of id =
        if id = changed then arrival_of (seed + 99) id else old_arrival_of id
      in
      let check engine =
        let base = Ssta.analyze_rf ~delay_rf ~input_arrival_of:old_arrival_of ~engine c in
        let full = Ssta.analyze_rf ~delay_rf ~input_arrival_of:new_arrival_of ~engine c in
        Ssta.update ~delay_rf ~input_arrival_of:new_arrival_of base ~changed:[ changed ];
        assert_ssta_identical
          (Printf.sprintf "update vs full (%s)"
             (match engine with `Flat -> "flat" | `Record -> "record"))
          c full base
      in
      check `Flat;
      check `Record;
      true)

(* The session workload: one flat result refined in place through a
   chain of resize / retype / set-input mutations.  After every step the
   in-place state must equal a from-scratch record-engine analysis of the
   mutated circuit on every net, Int64-exact — a stale slot anywhere
   would surface at the first step that reads it. *)
let prop_update_chain_in_place =
  QCheck.Test.make ~name:"in-place update_rf chain = record oracle after every step" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = random_circuit seed in
      let rng = Rng.create ~seed:(seed + 31) in
      let sized = Sized.default in
      let asg = Sized.initial c in
      let delay_rf id = Sized.delay_rf sized c asg id in
      let overrides = Hashtbl.create 8 in
      let input_arrival_of id =
        match Hashtbl.find_opt overrides id with Some a -> a | None -> arrival_of seed id
      in
      let gates = Circuit.topo_gates c in
      let sources = Array.of_list (Circuit.sources c) in
      let result = Ssta.analyze ~delay_rf ~input_arrival_of c in
      let steps = 5 + Rng.int rng 16 in
      for step = 1 to steps do
        let changed =
          match Rng.int rng 3 with
          | 0 ->
            let g = gates.(Rng.int rng (Array.length gates)) in
            Transform.resize_gate sized c asg g ~size:(Rng.int rng (Sized.num_sizes sized))
          | 1 ->
            let g = gates.(Rng.int rng (Array.length gates)) in
            (* same arity class: the retype is always legal *)
            let kind =
              match Circuit.driver c g with
              | Circuit.Gate { kind; _ } -> (
                match kind with
                | Gate_kind.And -> Gate_kind.Nor
                | Gate_kind.Nand -> Gate_kind.Xor
                | Gate_kind.Or -> Gate_kind.Nand
                | Gate_kind.Nor -> Gate_kind.And
                | Gate_kind.Xor -> Gate_kind.Or
                | Gate_kind.Xnor -> Gate_kind.Nand
                | Gate_kind.Not -> Gate_kind.Buf
                | Gate_kind.Buf -> Gate_kind.Not)
              | Circuit.Input | Circuit.Dff_output _ -> assert false
            in
            Transform.retype_gate c g ~kind
          | _ ->
            let s = sources.(Rng.int rng (Array.length sources)) in
            Hashtbl.replace overrides s (arrival_of (seed + (1000 * step)) s);
            [ s ]
        in
        Ssta.update ~delay_rf ~input_arrival_of result ~changed;
        let oracle = Ssta.analyze_rf ~delay_rf ~input_arrival_of ~engine:`Record c in
        assert_ssta_identical (Printf.sprintf "seed %d step %d" seed step) c oracle result
      done;
      true)

(* ---------- sanitizer parity on the float slots ---------- *)

let build_chain () =
  let b = Circuit.Builder.create ~name:"flatchain" () in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b ~output:"n1" Gate_kind.And [ "a"; "b" ];
  Circuit.Builder.add_gate b ~output:"n2" Gate_kind.Or [ "n1"; "a" ];
  Circuit.Builder.add_gate b ~output:"n3" Gate_kind.Not [ "n2" ];
  Circuit.Builder.add_output b "n3";
  Circuit.Builder.finalize b

(* a NaN rise delay on one gate corrupts exactly one rise slot; the
   flat path's checker must name that net (and its driver and level)
   without ever materializing an arrival record *)
let test_flat_sanitizer_locates_fault () =
  let c = build_chain () in
  let poisoned = Circuit.find_exn c "n2" in
  let delay_rf id = if id = poisoned then (Float.nan, 1.0) else (1.0, 1.0) in
  (match Ssta.analyze ~delay_rf ~check:true c with
  | (_ : Ssta.result) -> Alcotest.fail "NaN delay was not caught on the flat path"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "circuit" "flatchain" v.circuit;
    Alcotest.(check string) "net" "n2" v.net;
    Alcotest.(check string) "driver" "OR" v.driver;
    Alcotest.(check int) "level" 2 v.level;
    Alcotest.(check string) "rule" "non-finite" v.rule);
  (* with the checker off the same NaN flows through silently *)
  let r = Ssta.analyze ~delay_rf ~check:false c in
  Alcotest.(check bool) "NaN propagates unchecked" true
    (Float.is_nan (Normal.mean (Ssta.arrival r poisoned).Ssta.rise))

let test_flat_sta_sanitizer_locates_fault () =
  let c = build_chain () in
  let poisoned = Circuit.find_exn c "n1" in
  let gate_delay_of id = if id = poisoned then Float.nan else 1.0 in
  match Sta.analyze ~gate_delay_of ~check:true c with
  | (_ : Sta.result) -> Alcotest.fail "NaN delay was not caught on the flat STA path"
  | exception Sanitize.Violation v ->
    Alcotest.(check string) "net" "n1" v.net;
    Alcotest.(check string) "driver" "AND" v.driver;
    Alcotest.(check string) "rule" "non-finite" v.rule

(* ---------- bench_track: metrics, history, regression gate ---------- *)

let bench_doc ?(incr = 2e-5) ?(grid_baseline = 0.04) ~ssta ~grid ~c100k_ssta () =
  Json.Obj
    [ ("schema", Json.string "spsta-bench/5");
      ("host_cores", Json.int 4);
      ("domains", Json.int 4);
      ( "circuits",
        Json.List
          [ Json.Obj
              [ ("name", Json.string "s344");
                ( "timings_s",
                  Json.Obj
                    [ ("ssta", Json.float ssta);
                      ("spsta_grid", Json.float grid);
                      ("spsta_grid_baseline", Json.float grid_baseline) ] );
                ( "sizing",
                  Json.Obj
                    [ ("full_analysis_s", Json.float 0.04);
                      ("incremental_update_s", Json.float incr) ] ) ] ] );
      ( "scale",
        Json.List
          [ Json.Obj
              [ ("name", Json.string "c100k");
                ("gates", Json.int 100_000);
                ("ssta_s", Json.float c100k_ssta);
                ("ssta_domains", Json.float 2.0) ] ] ) ]

let test_bench_track_metrics () =
  let doc = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let m = Bench_track.metrics doc in
  let assoc k = List.assoc k m in
  Alcotest.(check (float 0.0)) "circuit timing" 0.5 (assoc "s344/ssta");
  Alcotest.(check (float 0.0)) "sizing timing" 0.04 (assoc "s344/sizing/full_analysis_s");
  Alcotest.(check (float 0.0)) "scale timing" 0.08 (assoc "c100k/ssta_s");
  Alcotest.(check bool) "ratios are not tracked" true
    (not (List.mem_assoc "c100k/ssta_domains" m));
  Alcotest.(check bool) "counts are not tracked" true (not (List.mem_assoc "c100k/gates" m))

let test_bench_track_compare () =
  let base = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  (* 50% regression on one metric, the others within threshold *)
  let regressed = bench_doc ~ssta:0.75 ~grid:0.021 ~c100k_ssta:0.081 () in
  let compared, regressions = Bench_track.compare_docs ~base ~current:regressed () in
  Alcotest.(check bool) "several metrics compared" true (compared >= 4);
  (match regressions with
  | [ r ] ->
    Alcotest.(check string) "regressed metric" "s344/ssta" r.Bench_track.metric;
    Alcotest.(check (float 1e-9)) "ratio" 1.5 r.Bench_track.ratio
  | other -> Alcotest.failf "expected exactly one regression, got %d" (List.length other));
  (* identical documents never regress *)
  let _, clean = Bench_track.compare_docs ~base ~current:base () in
  Alcotest.(check int) "self-compare is clean" 0 (List.length clean);
  (* the sizing incremental update (2e-5 s) sits below the baseline
     floor: even doubled it is timer jitter, not a regression *)
  let doubled_tiny = bench_doc ~incr:4e-5 ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let _, small = Bench_track.compare_docs ~base ~current:doubled_tiny () in
  Alcotest.(check int) "sub-floor metrics ignored" 0 (List.length small);
  (* a few-millisecond metric blowing past the relative threshold but
     growing by less than the absolute floor is scheduler noise, not a
     regression the gate can act on *)
  let small_base = bench_doc ~ssta:0.5 ~grid:0.004 ~c100k_ssta:0.08 () in
  let small_drift = bench_doc ~ssta:0.5 ~grid:0.006 ~c100k_ssta:0.08 () in
  let _, drift = Bench_track.compare_docs ~base:small_base ~current:small_drift () in
  Alcotest.(check int) "sub-delta drift ignored" 0 (List.length drift);
  (* ... but the same relative jump with real absolute growth is caught *)
  let big_jump = bench_doc ~ssta:0.5 ~grid:0.012 ~c100k_ssta:0.08 () in
  let _, caught = Bench_track.compare_docs ~base:small_base ~current:big_jump () in
  Alcotest.(check int) "above-delta jump caught" 1 (List.length caught);
  (* reference entries (the deliberately-unoptimised speedup anchors)
     are recorded but never gated, however far they move *)
  let ref_jump = bench_doc ~grid_baseline:0.4 ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let _, refs = Bench_track.compare_docs ~base ~current:ref_jump () in
  Alcotest.(check int) "baseline reference entries never gate" 0 (List.length refs);
  Alcotest.(check bool) "baseline reference entries still tracked" true
    (List.mem_assoc "s344/spsta_grid_baseline" (Bench_track.metrics ref_jump))

let test_bench_track_history () =
  let doc = bench_doc ~ssta:0.5 ~grid:0.02 ~c100k_ssta:0.08 () in
  let record = Bench_track.history_record ~commit:"abc123" ~utc:"2026-08-07T00:00:00Z" doc in
  (match Json.member "schema" record with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" Bench_track.history_schema s
  | _ -> Alcotest.fail "history record has no schema");
  (match Json.member "metrics" record with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "metrics flattened" true (List.mem_assoc "s344/ssta" fields)
  | _ -> Alcotest.fail "history record has no metrics");
  let path = Filename.temp_file "spsta_bench_history" ".jsonl" in
  Bench_track.append_history ~path record;
  Bench_track.append_history ~path record;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "append-only: one line per record" 2 (List.length !lines);
  List.iter
    (fun line ->
      match Json.of_string_opt line with
      | Some (Json.Obj _) -> ()
      | Some _ | None -> Alcotest.fail "history line is not a JSON object")
    !lines

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_bit_identical;
    QCheck_alcotest.to_alcotest prop_sta_bit_identical;
    QCheck_alcotest.to_alcotest prop_update_equivalent;
    QCheck_alcotest.to_alcotest prop_update_chain_in_place;
    Alcotest.test_case "flat = record on s344/s1238 at domains 1,2,4" `Quick
      test_engines_identical_suite;
    Alcotest.test_case "flat sanitizer locates a poisoned slot" `Quick
      test_flat_sanitizer_locates_fault;
    Alcotest.test_case "flat STA sanitizer locates a poisoned slot" `Quick
      test_flat_sta_sanitizer_locates_fault;
    Alcotest.test_case "bench_track metric extraction" `Quick test_bench_track_metrics;
    Alcotest.test_case "bench_track regression gate" `Quick test_bench_track_compare;
    Alcotest.test_case "bench_track history records" `Quick test_bench_track_history;
  ]
