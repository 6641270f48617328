module Transform = Spsta_netlist.Transform

let test_statistics () =
  let c = Spsta_experiments.Benchmarks.s27 () in
  let stats = Transform.statistics c in
  let get key = List.assoc key stats in
  Alcotest.(check int) "gates" 10 (get "gates");
  Alcotest.(check int) "nor count" 4 (get "nor");
  Alcotest.(check int) "ff count" 3 (get "flip_flops");
  Alcotest.(check bool) "max fanout positive" true (get "max_fanout" > 0)

let suite = [ Alcotest.test_case "statistics" `Quick test_statistics ]
