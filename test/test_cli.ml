(* The unknown-subcommand hint must enumerate every subcommand — it is
   generated from the cmdliner command list itself (one source of
   truth), so this test catches a regression to a hand-maintained
   hint, or a help wiring that drops a command. *)

(* resolved relative to the test binary, not the cwd, so both
   `dune runtest` and `dune exec test/test_main.exe` find it *)
let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/spsta_cli.exe"

let run_capture cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Buffer.contents buf

let expected =
  [ "analyze"; "lint"; "check"; "ssta"; "mc"; "power"; "exact-prob"; "paths"; "sequential";
    "chip-delay"; "variation"; "report"; "criticality"; "static"; "size"; "waveform"; "export";
    "gen"; "experiment"; "list"; "serve"; "batch"; "session" ]

let test_unknown_subcommand_hint () =
  let out = run_capture (Filename.quote cli ^ " no-such-subcommand 2>&1") in
  Alcotest.(check bool) "names the bad subcommand" true
    (let re = "unknown subcommand no-such-subcommand" in
     let len = String.length re in
     let rec find i = i + len <= String.length out && (String.sub out i len = re || find (i + 1)) in
     find 0);
  let hint_line =
    match
      List.find_opt
        (fun l -> String.length l > 22 && String.sub l 0 22 = "available subcommands:")
        (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.failf "no suggestion line in output:\n%s" out
  in
  let listed =
    String.sub hint_line 22 (String.length hint_line - 22)
    |> String.split_on_char ',' |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "hint lists %s" name) true (List.mem name listed))
    expected;
  Alcotest.(check int) "and nothing else" (List.length expected) (List.length listed);
  Alcotest.(check int) "no duplicates" (List.length listed)
    (List.length (List.sort_uniq compare listed))

(* Golden outputs: every deterministic subcommand's stdout, byte for
   byte, from files under golden/ (regenerate one with
   [spsta ARGS > test/golden/NAME.out] when a change to the output
   is intended).  Stderr and the exit code are checked too. *)

let golden_dir = Filename.concat (Filename.dirname Sys.executable_name) "golden"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_cli args =
  let out = Filename.temp_file "spsta_cli" ".out" and err = Filename.temp_file "spsta_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args (Filename.quote out)
         (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let golden =
  [ ("analyze_s27", "analyze s27");
    ("analyze_s27_case_II", "analyze s27 --case II");
    ("ssta_s27", "ssta s27");
    ("mc_s27_runs_200", "mc s27 --runs 200");
    ("mc_s27_runs_200_domains_2", "mc s27 --runs 200 --domains 2");
    ("lint_s27", "lint s27");
    ("static_s27_s344", "static s27 s344");
    ("static_s27_s344_json", "static s27 s344 --json");
    ("static_s27_reconv_top_1", "static s27 --pass reconv --top 1");
    ("size_s27_moves_4", "size s27 --max-moves 4");
    ("size_s27_moves_4_json", "size s27 --max-moves 4 --json");
    ("size_s27_moves_4_prune", "size s27 --max-moves 4 --static-prune");
    ("criticality_s27", "criticality s27");
    ("criticality_s27_json", "criticality s27 --json");
    ("criticality_s27_grid_json", "criticality s27 --domain grid --json");
    ("paths_s27", "paths s27");
    ("sequential_s27_cycles_200", "sequential s27 --cycles 200");
    ("chip-delay_s27", "chip-delay s27");
    ("variation_s27", "variation s27");
    ("report_s27", "report s27");
    ("waveform_s27", "waveform s27");
    ("power_s27", "power s27");
    ("exact-prob_s27", "exact-prob s27");
    ("gen_s27", "gen s27");
    ("experiment_table1", "experiment table1");
    ("list", "list") ]

let test_golden (name, args) () =
  let code, stdout, stderr = run_cli args in
  Alcotest.(check string) "stdout" (read_file (Filename.concat golden_dir (name ^ ".out"))) stdout;
  Alcotest.(check string) "stderr" "" stderr;
  Alcotest.(check int) "exit code" 0 code

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_unknown_circuit () =
  let code, stdout, stderr = run_cli "analyze nosuch" in
  Alcotest.(check string) "stdout" "" stdout;
  Alcotest.(check string) "stderr" "error: nosuch is neither a file nor a suite circuit\n" stderr;
  Alcotest.(check int) "exit code" 1 code

(* A bad enum value or an out-of-range number is a command-line error:
   exit 124, with a message naming the option, the value and every
   choice. *)
let bad_values =
  [ ("bad case", "analyze s27 --case III", "--case", "III", [ "i"; "1"; "I"; "ii"; "2"; "II" ]);
    ("bad lib", "lint s27 --lib bogus", "--lib", "bogus", [ "unit"; "default" ]);
    ("bad format", "gen s27 --format bogus", "--format", "bogus", [ "bench"; "verilog"; "v" ]);
    ("bad initial", "size s27 --initial bogus", "--initial", "bogus", [ "smallest"; "largest" ]);
    ("negative mc runs", "mc s27 --runs=-5", "--runs", "-5", []);
    ("negative table2 runs", "experiment table2 --runs=-1", "--runs", "-1", []);
    ("zero fig1 runs", "experiment fig1 --runs=0", "--runs", "0", []);
    ("negative export runs", "export s27 --runs=-3", "--runs", "-3", []);
    ("negative cycles", "sequential s27 --cycles=-1", "--cycles", "-1", []);
    ("negative sigma", "variation s27 --sigma-global=-1", "--sigma-global", "-1", []);
    ("zero grid", "variation s27 --grid=0", "--grid", "0", []);
    ("negative paths sigma", "paths s27 --sigma-random=-0.5", "--sigma-random", "-0.5", []);
    ("nan sigma", "variation s27 --sigma-spatial=nan", "--sigma-spatial", "nan", []);
    ("infinite sigma", "variation s27 --sigma-random=inf", "--sigma-random", "inf", []);
    ("negative domains", "mc s27 --domains=-1", "--domains", "-1", []);
    ("zero dt", "criticality s27 --domain grid --dt=0", "--dt", "0", []);
    ("negative dt", "criticality s27 --domain grid --dt=-1", "--dt", "-1", []);
    ("negative check dt", "check s27 --dt=-0.1", "--dt", "-0.1", []);
    ("negative max moves", "size s27 --max-moves=-1", "--max-moves", "-1", []);
    ("ratio below 1", "size s27 --ratio=0.5", "--ratio", "0.5", []);
    ("quantile above 1", "size s27 --quantile=2", "--quantile", "2", []);
    ("zero candidates", "size s27 --candidates=0", "--candidates", "0", []);
    ("nan clock", "report s27 --clock=nan", "--clock", "nan", []) ]

let test_bad_value (_, args, option, value, choices) () =
  let code, stdout, stderr = run_cli args in
  Alcotest.(check string) "stdout" "" stdout;
  Alcotest.(check int) "exit code" 124 code;
  let message = Printf.sprintf "spsta: option '%s': invalid value '%s'" option value in
  Alcotest.(check bool) message true (contains stderr message);
  List.iter
    (fun c -> Alcotest.(check bool) ("lists " ^ c) true (contains stderr (Printf.sprintf "'%s'" c)))
    choices

(* lint reads --dt as a model setting to check, not as a usage error:
   a non-finite step is a grid-dt finding (exit 3) *)
let test_lint_checks_dt () =
  let code, stdout, _ = run_cli "lint s27 --dt=nan" in
  Alcotest.(check bool) "grid-dt finding" true (contains stdout "grid-dt");
  Alcotest.(check int) "exit code" 3 code

let suite =
  [ Alcotest.test_case "unknown subcommand hint enumerates all" `Quick
      test_unknown_subcommand_hint ]
  @ List.map
      (fun ((name, _) as case) -> Alcotest.test_case name `Quick (test_golden case))
      golden
  @ [ Alcotest.test_case "unknown circuit" `Quick test_unknown_circuit;
      Alcotest.test_case "lint checks a bad dt" `Quick test_lint_checks_dt ]
  @ List.map
      (fun ((name, _, _, _, _) as case) -> Alcotest.test_case name `Quick (test_bad_value case))
      bad_values
