module Circuit = Spsta_netlist.Circuit
module Export = Spsta_experiments.Export
module Workloads = Spsta_experiments.Workloads

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let test_csv_of_series () =
  let csv = Export.csv_of_series ~header:"x,y" [ (1.0, 2.0); (3.0, 4.0) ] in
  match lines csv with
  | [ header; r1; r2 ] ->
    Alcotest.(check string) "header" "x,y" header;
    Alcotest.(check bool) "row 1" true (String.length r1 > 0 && r1.[0] = '1');
    Alcotest.(check bool) "row 2" true (String.length r2 > 0 && r2.[0] = '3')
  | _ -> Alcotest.fail "expected three lines"

let test_top_series_masses () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec = Workloads.spec_fn Workloads.Case_i in
  let e = Circuit.find_exn c "G17" in
  let csv = Export.top_series ~dt:0.1 c ~spec ~net:e in
  let rows = List.tl (lines csv) in
  Alcotest.(check bool) "has rows" true (List.length rows > 10);
  (* integrating the densities recovers the transition probabilities *)
  let sum_rise = ref 0.0 and sum_fall = ref 0.0 in
  List.iter
    (fun row ->
      match String.split_on_char ',' row with
      | [ _; r; f ] ->
        sum_rise := !sum_rise +. (0.1 *. float_of_string r);
        sum_fall := !sum_fall +. (0.1 *. float_of_string f)
      | _ -> Alcotest.fail "malformed row")
    rows;
  let spsta = Spsta_core.Analyzer.Moments.analyze c ~spec in
  let _, _, p_rise =
    Spsta_core.Analyzer.Moments.transition_stats (Spsta_core.Analyzer.Moments.signal spsta e) `Rise
  in
  Alcotest.(check bool) "rise mass recovered" true (Float.abs (!sum_rise -. p_rise) < 0.01);
  Alcotest.(check bool) "fall mass positive" true (!sum_fall > 0.0)

let test_mc_histogram () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec = Workloads.spec_fn Workloads.Case_i in
  let e = Circuit.find_exn c "G13" in
  let csv = Export.mc_histogram ~runs:2000 ~seed:3 c ~spec ~net:e in
  Alcotest.(check bool) "has data rows" true (List.length (lines csv) > 5)

let test_chip_delay_csv () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let spec = Workloads.spec_fn Workloads.Case_i in
  let csv = Export.chip_delay_distribution c ~spec in
  let rows = List.tl (lines csv) in
  let total =
    List.fold_left
      (fun acc row ->
        match String.split_on_char ',' row with
        | [ _; m ] -> acc +. float_of_string m
        | _ -> acc)
      0.0 rows
  in
  let r = Spsta_core.Chip_delay.compute c ~spec in
  Alcotest.(check bool) "mass matches 1 - idle" true
    (Float.abs (total -. (1.0 -. Spsta_core.Chip_delay.p_idle r)) < 1e-6)

let test_table2_csv () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let m = Spsta_experiments.Table2.measure ~runs:300 ~seed:3 c ~case:Workloads.Case_i in
  let rows = m.Spsta_experiments.Table2.rows in
  let csv = Export.table2_csv rows in
  Alcotest.(check int) "header + 2 rows" 3 (List.length (lines csv))

let test_write_file () =
  let path = Filename.temp_file "spsta_export" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_file ~path "a,b\n1,2\n";
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "roundtrip" "a,b\n1,2\n" contents)

let suite =
  [
    Alcotest.test_case "csv_of_series" `Quick test_csv_of_series;
    Alcotest.test_case "top series integrates to P" `Quick test_top_series_masses;
    Alcotest.test_case "mc histogram" `Quick test_mc_histogram;
    Alcotest.test_case "chip delay csv" `Quick test_chip_delay_csv;
    Alcotest.test_case "table2 csv" `Quick test_table2_csv;
    Alcotest.test_case "write_file" `Quick test_write_file;
  ]
