(* The benchmark's own tests: [sh perfbench/run.sh --self-test].

   - the writer gives byte-identical text for a seed, and no dead gates;
   - a corrupted expected payload, or a corrupted oracle, counts as a
     failure;
   - every [size] request of the fixed sizing designs succeeds;
   - BENCHMARK.json equals the catalog;
   - smoke mode: each workload at tiny size, untraced and traced, in a
     child process; every named metric is emitted, every per-layer
     metric is non-zero on some workload, and the work counters of two
     traced runs with one seed repeat exactly. *)

module Json = Spsta_server.Json

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun what ->
      Printf.eprintf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
      if not ok then incr failures)
    fmt

let generator () =
  let shape = Settings.signoff_shape Settings.Smoke in
  expect (Gen.text ~seed:7 shape = Gen.text ~seed:7 shape) "writer: one seed, identical bytes";
  expect (Gen.text ~seed:7 shape <> Gen.text ~seed:8 shape) "writer: two seeds, different designs";
  List.iter
    (fun shape ->
      let d = Gen.make ~dir:Settings.work_dir ~seed:11 shape in
      expect (d.Gen.info.Gen.unobservable_gates = 0) "writer: %s has no unobservable gate"
        shape.Gen.name)
    (Settings.mix_shapes Settings.Smoke @ Settings.accuracy_shapes)

let corrupted_payloads () =
  let r = Report.create () in
  let answers = Hashtbl.create 4 in
  let q =
    Mix.req ~gates:1 (Spsta_server.Protocol.Ssta { circuit = "c"; top = 0; check = false })
  in
  Mix.check_payload r answers q {|{"endpoints":[{"mu_rise":1.5}]}|};
  Mix.check_payload r answers q {|{"endpoints":[{"mu_rise":1.5}]}|};
  expect (r.Report.failed = 0) "serve-mix: an identical repeat passes";
  Mix.check_payload r answers q {|{"endpoints":[{"mu_rise":1.6}]}|};
  expect (r.Report.failed = 1) "serve-mix: a corrupted payload counts as a failure";
  let d = Gen.make ~dir:Settings.work_dir ~seed:3 (Settings.signoff_shape Settings.Smoke) in
  let o = Signoff.op (Span.create ()) d.Gen.bench in
  expect (Signoff.check o = []) "signoff: the flat kernel matches the record oracle";
  let skewed = Spsta_ssta.Ssta.analyze_rf ~engine:`Record ~delay_rf:(fun _ -> (1.0, 1.0 +. epsilon_float)) o.Signoff.circuit in
  expect (Signoff.check_with ~oracle:skewed o <> []) "signoff: a corrupted oracle counts as a failure"

(* The fixed sizing designs must size cleanly: the serve-mix stream
   sends them every [size] key it has. *)
let sizing () =
  List.iter
    (fun size ->
      List.iter
        (fun (d : Gen.design) ->
          let cache = Spsta_server.Cache.create () in
          let failed =
            List.filter
              (fun kind ->
                match
                  Spsta_server.Engine.execute cache
                    { Spsta_server.Protocol.id = "size"; deadline_ms = None; kind }
                with
                | Spsta_server.Protocol.Ok _ -> false
                | Spsta_server.Protocol.Error _ -> true)
              (Mix.size_kinds d)
          in
          expect (failed = []) "sizing: every size request on %s succeeds" d.Gen.path)
        (Mix.sizing_designs ~dir:Settings.work_dir size))
    Settings.[ Smoke; Full ]

let benchmark_json () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | text -> expect (text = Catalog.benchmark_json ()) "BENCHMARK.json equals the catalog"
  | exception Sys_error _ -> expect false "BENCHMARK.json is readable from the checkout root"

let result_of out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  Json.of_string (List.nth lines (List.length lines - 1))

let metric json name =
  Option.bind
    (Option.bind (Json.member "metrics" json) (Json.member name))
    (fun m -> Option.bind (Json.member "value" m) Json.to_float_opt)

let smoke_run ~workload ~seed ~trace =
  result_of
    (Proc.run_capture
       [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1"; "--trace";
         (if trace then "1" else "0"); "--smoke" ])

(* Work counts of the fixed prefix repeat exactly. *)
let exact_counters =
  [ "engine.gate_evals"; "cache.memo_hits"; "cache.memo_misses"; "session.dirty_gates";
    "session.dirty_gates_p90"; "gc.alloc_words_per_op"; "gc.major_collections_per_op" ]

let smoke () =
  let traced =
    List.concat_map
      (fun (w : Catalog.workload) ->
        List.map
          (fun trace ->
            let json = smoke_run ~workload:w.name ~seed:5 ~trace in
            expect (Json.member "correct" json = Some (Json.Bool true)) "smoke %s trace=%b: correct"
              w.name trace;
            let names = List.map (fun (m : Catalog.metric) -> m.name) (Report.metrics_of ~trace) in
            expect
              (List.for_all (fun n -> metric json n <> None) names)
              "smoke %s trace=%b: every metric emitted" w.name trace;
            (w.name, trace, json))
          [ false; true ])
      Catalog.workloads
    |> List.filter_map (fun (w, trace, json) -> if trace then Some (w, json) else None)
  in
  (* fail_ratio must read 0; redundant computes need two identical
     requests to race, which a smoke run may not see; a smoke run asks
     too few keys to fill the memo *)
  let may_be_zero = [ "fail_ratio"; "cache.redundant_computes"; "cache.memo_evictions" ] in
  List.iter
    (fun (m : Catalog.metric) ->
      if not (List.mem m.name may_be_zero) then
        expect
          (List.exists (fun (_, json) -> metric json m.name <> Some 0.0) traced)
          "per-layer %s is measured on some workload" m.name)
    Catalog.per_layer;
  List.iter
    (fun (w, first) ->
      let again = smoke_run ~workload:w ~seed:5 ~trace:true in
      List.iter
        (fun c -> expect (metric first c = metric again c) "%s: %s repeats exactly" w c)
        exact_counters)
    traced

let run () =
  generator ();
  corrupted_payloads ();
  sizing ();
  benchmark_json ();
  smoke ();
  if !failures > 0 then begin
    Printf.eprintf "%d self-test failures\n%!" !failures;
    exit 1
  end
  else Printf.eprintf "self-test passed\n%!"
