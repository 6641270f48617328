(* spsta: command-line front end.

   Subcommands:
     analyze    - SPSTA on a .bench file or named suite circuit
     lint       - static netlist / model checks with structured findings
     check      - run every analyzer under the invariant sanitizer
     ssta       - the min/max-separated SSTA baseline
     mc         - Monte Carlo reference simulation
     power      - transition densities and dynamic power
     exact-prob - BDD-exact signal probabilities vs eq. 5
     paths      - K most critical paths with variational statistics
     sequential - steady-state flip-flop statistics (fixed point vs sim)
     chip-delay - chip-level delay distribution, yield, criticality
     variation  - canonical-form SSTA under a correlated process model
     criticality - per-gate statistical criticality and slack
     static     - dataflow passes: constants, reconvergence, observability, criticality
     size       - greedy statistical gate sizing on the incremental engine
     gen        - emit a synthetic suite circuit as .bench
     experiment - regenerate a paper table/figure
     list       - list suite circuits and experiments
     serve      - JSONL analysis/session service (stdin, Unix socket or TCP)
     batch      - execute a JSONL request file concurrently
     session    - interactive timing-session client (scripts, ECO exercise, REPL)

   The [analyze], [ssta], [mc], [size --json] and [static --json] reports
   are rendered from the payload builders the server answers with
   ({!Spsta_server.Engine}), so the CLI and the server cannot drift. *)

open Cmdliner

module Circuit = Spsta_netlist.Circuit
module Bench_io = Spsta_netlist.Bench_io
module Generator = Spsta_netlist.Generator
module Cell_library = Spsta_netlist.Cell_library
module Sized_library = Spsta_netlist.Sized_library
module Input_spec = Spsta_sim.Input_spec
module Monte_carlo = Spsta_sim.Monte_carlo
module Analyzer = Spsta_core.Analyzer
module Experiments = Spsta_experiments
module Workloads = Experiments.Workloads
module Json = Spsta_server.Json
module Engine = Spsta_server.Engine
module Table = Spsta_util.Table

(* Print "error: MSG" on stderr and exit 1. *)
let die fmt = Printf.kfprintf (fun _ -> exit 1) stderr ("error: " ^^ fmt ^^ "\n")

let load_circuit name_or_path =
  if Sys.file_exists name_or_path then
    try
      if Filename.check_suffix name_or_path ".v" then
        Spsta_netlist.Verilog_io.parse_file name_or_path
      else Bench_io.parse_file name_or_path
    with
    | Bench_io.Parse_error { line; message } ->
      die "%s:%d: %s" name_or_path line message
    | Spsta_netlist.Verilog_io.Parse_error { line; message } ->
      die "%s:%d: %s" name_or_path line message
    | Circuit.Invalid_circuit { message; _ } -> die "%s: invalid circuit: %s" name_or_path message
    | Sys_error message -> die "%s" message
  else
    try Experiments.Benchmarks.load name_or_path
    with Not_found -> die "%s is neither a file nor a suite circuit" name_or_path

(* ---------- shared terms ---------- *)

let circuit_arg =
  let doc = "Circuit: a .bench file path or a suite name (e.g. s344)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let circuit = Term.(const load_circuit $ circuit_arg)

let circuits_arg =
  let doc = "Circuits: .bench/.v file paths or suite names." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"CIRCUIT" ~doc)

let case_arg =
  let doc = "Input statistics case: I (p1=p0=pr=pf=0.25) or II (15/75/2/8%)." in
  (* the help text shows the last name given for the default *)
  let case =
    Arg.enum
      Workloads.
        [ ("i", Case_i); ("1", Case_i); ("I", Case_i); ("ii", Case_ii); ("2", Case_ii);
          ("II", Case_ii) ]
  in
  Arg.(value & opt case Workloads.Case_i & info [ "case" ] ~docv:"CASE" ~doc)

let spec = Term.(const Workloads.spec_fn $ case_arg)

(* A number option whose out-of-range values are usage errors (exit
   124) rather than a failure deep inside the analysis. *)
let checked_conv of_string accept expected pp =
  let parse s =
    match of_string s with
    | Some v when accept v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked_conv int_of_string_opt (fun n -> n >= 1) "a positive integer" Format.pp_print_int

let non_negative_int =
  checked_conv int_of_string_opt (fun n -> n >= 0) "a non-negative integer" Format.pp_print_int

let finite_float accept expected =
  checked_conv float_of_string_opt
    (fun x -> Float.is_finite x && accept x)
    expected
    (fun ppf x -> Format.fprintf ppf "%g" x)

let sigma_float = finite_float (fun x -> x >= 0.0) "a finite non-negative number"
let positive_float = finite_float (fun x -> x > 0.0) "a finite positive number"

let count_arg name doc = Arg.(value & opt positive_int 10_000 & info [ name ] ~docv:"N" ~doc)

let runs_arg = count_arg "runs" "Monte Carlo runs."

let seed_arg =
  let doc = "PRNG seed (all analyses are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let top_arg ~default doc = Arg.(value & opt int default & info [ "top" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Emit the report as JSON: one object, or for the multi-circuit subcommands an array \
     of one object per circuit."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* the analyses take [positive_float]; lint takes the raw float, because
   checking the grid settings is its job (a bad step is a finding) *)
let dt_arg dt_conv =
  let doc = "Grid step of the discretised (grid) t.o.p. backend." in
  Arg.(value & opt dt_conv 0.1 & info [ "dt" ] ~docv:"DT" ~doc)

(* 0 resolves to one domain per available core *)
let domains_term names doc =
  let resolve = function 0 -> Spsta_util.Parallel.default_domains () | d -> d in
  Term.(const resolve $ Arg.(value & opt non_negative_int 1 & info names ~docv:"N" ~doc))

let domains =
  domains_term [ "domains" ]
    "Worker domains for the propagation (0 = one per available core).  Every analysis on \
     the levelized engine (SPSTA, SSTA, STA, bounds, canonical, interval) is bit-identical \
     at every domain count, and so is Monte Carlo: each trial draws from its own seeded \
     substream, so the domain count is purely a throughput knob."

let mc_domains =
  domains_term [ "mc-domains"; "domains" ]
    "Worker domains for the Monte Carlo trial chunks (0 = one per available core).  \
     Results are bit-identical at every domain count."

(* flag absent -> None: fall back to the SPSTA_CHECK environment toggle *)
let check =
  let doc =
    "Install the per-gate invariant sanitizer: after every gate evaluation verify the \
     propagated state (finite moments, non-negative masses, conservation up to the \
     tracked truncation bound) and abort with a diagnostic naming the circuit, net, gate \
     kind and level on the first violation.  Also enabled by SPSTA_CHECK=1; without \
     either, nothing is checked; a checked run that passes gives bit-identical results."
  in
  Term.(const (fun on -> if on then Some true else None) $ Arg.(value & flag & info [ "check" ] ~doc))

(* The enum maps to names, not libraries: its help printer compares
   values, and a library holds closures. *)
let library ~default doc =
  let names = Arg.enum [ ("unit", `Unit); ("default", `Default) ] in
  let of_name = function `Unit -> Cell_library.unit_delay | `Default -> Cell_library.default in
  Term.(const of_name $ Arg.(value & opt names default & info [ "lib" ] ~docv:"LIB" ~doc))

(* A process-variation model with all three sigmas defaulting to [default]. *)
let param_model ~default grid =
  let sigma name doc = Arg.(value & opt sigma_float default & info [ name ] ~docv:"SIGMA" ~doc) in
  let create sigma_global sigma_spatial sigma_random grid =
    Spsta_variation.Param_model.create ~sigma_global ~sigma_spatial ~sigma_random ~grid ()
  in
  Term.(
    const create
    $ sigma "sigma-global" "Die-to-die delay sigma."
    $ sigma "sigma-spatial" "Within-die spatially correlated sigma."
    $ sigma "sigma-random" "Per-gate independent sigma."
    $ grid)

let print_header circuit =
  Format.printf "%a@." Circuit.pp_summary circuit

let deepest_endpoint circuit =
  List.fold_left
    (fun best e -> if Circuit.level circuit e > Circuit.level circuit best then e else best)
    (List.hd (Circuit.endpoints circuit))
    (Circuit.endpoints circuit)

let json_float json key =
  match Json.member key json with Some (Json.Num n) -> n | _ -> nan

(* ---------- endpoint reports ---------- *)

(* One row per endpoint of a per-endpoint payload, one %.3f column per
   (header, field) pair. *)
let print_endpoints columns payload =
  let table = Table.create ~headers:("endpoint" :: List.map fst columns) in
  let row e =
    let net = Option.value ~default:"" (Option.bind (Json.member "net" e) Json.to_string_opt) in
    Table.add_row table
      (net :: List.map (fun (_, field) -> Printf.sprintf "%.3f" (json_float e field)) columns)
  in
  List.iter row
    (Option.value ~default:[] (Option.bind (Json.member "endpoints" payload) Json.to_list_opt));
  print_endline (Table.render table)

let transition_columns =
  [ ("P(r)", "p_rise"); ("mu(r)", "mu_rise"); ("sigma(r)", "sigma_rise"); ("P(f)", "p_fall");
    ("mu(f)", "mu_fall"); ("sigma(f)", "sigma_fall"); ("SP", "sp") ]

let analyze_cmd =
  let run circuit case domains check =
    print_header circuit;
    print_endpoints transition_columns
      (Engine.analyze_payload ?check circuit ~case ~top:0 ~domains)
  in
  let info = Cmd.info "analyze" ~doc:"SPSTA endpoint timing statistics" in
  Cmd.v info Term.(const run $ circuit $ case_arg $ domains $ check)

let ssta_cmd =
  let run circuit domains check =
    print_header circuit;
    print_endpoints
      [ ("mu(r)", "mu_rise"); ("sigma(r)", "sigma_rise"); ("mu(f)", "mu_fall");
        ("sigma(f)", "sigma_fall") ]
      (Engine.ssta_payload ?check circuit ~top:0 ~domains)
  in
  let info = Cmd.info "ssta" ~doc:"Min/max-separated SSTA baseline" in
  Cmd.v info Term.(const run $ circuit $ domains $ check)

let mc_cmd =
  let run circuit case runs seed domains =
    print_header circuit;
    print_endpoints transition_columns
      (Engine.mc_payload circuit ~case ~runs ~seed ~top:0 ~domains)
  in
  let info = Cmd.info "mc" ~doc:"Monte Carlo reference simulation" in
  Cmd.v info Term.(const run $ circuit $ case_arg $ runs_arg $ seed_arg $ mc_domains)

module Lint = Spsta_lint.Lint

let lint_cmd =
  let run names json strict spec library dt eps =
    let grid = (dt, eps) in
    let lint_one name =
      if Sys.file_exists name then Lint.lint_path ~library ~spec ~grid name
      else
        match Experiments.Benchmarks.load name with
        | circuit -> Lint.check_circuit ~library ~spec ~grid circuit
        | exception Not_found ->
          [
            {
              Lint.rule = "io-error";
              severity = Lint.Error;
              nets = [];
              message = Printf.sprintf "%s is neither a file nor a suite circuit" name;
            };
          ]
    in
    let results = List.map (fun name -> (name, lint_one name)) names in
    if json then
      print_endline
        (Printf.sprintf "[%s]"
           (String.concat ","
              (List.map
                 (fun (name, findings) -> Lint.json_of_findings ~subject:name findings)
                 results)))
    else
      List.iter
        (fun (name, findings) ->
          Printf.printf "%s: %d error(s), %d warning(s), %d info(s)\n" name
            (Lint.count Lint.Error findings)
            (Lint.count Lint.Warning findings)
            (Lint.count Lint.Info findings);
          print_string (Lint.render_text findings))
        results;
    let code =
      List.fold_left (fun acc (_, findings) -> max acc (Lint.exit_code ~strict findings)) 0 results
    in
    if code <> 0 then exit code
  in
  let strict_arg =
    let doc = "Exit non-zero on Warning findings too." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let eps_lint_arg =
    let doc = "Grid truncation threshold checked against the error-bound rule." in
    Arg.(value & opt float 1e-9 & info [ "truncate-eps" ] ~docv:"EPS" ~doc)
  in
  let exits =
    Cmd.Exit.defaults
    @ [
        Cmd.Exit.info ~doc:"on Error findings in any linted circuit." 3;
        Cmd.Exit.info ~doc:"on Warning findings with $(b,--strict) (and no Errors)." 4;
      ]
  in
  let info =
    Cmd.info "lint" ~exits
      ~doc:"Static netlist and timing-model checks with structured findings"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Walks each circuit (and the selected cell library, input statistics and \
             grid settings) and reports structural defects (dangling or dead logic, \
             arity violations, degenerate flip-flop wiring) and model defects \
             (probabilities outside [0,1], vectors not summing to 1, negative or zero \
             delays, grid settings whose truncation bound cannot stay small).  Files \
             that fail to parse or finalize report the rejection as an error finding \
             (undriven nets, multiply-driven nets and combinational cycles are \
             classified individually, with the offending nets named).";
        ]
  in
  Cmd.v info
    Term.(
      const run $ circuits_arg $ json_arg $ strict_arg $ spec
      $ library ~default:`Unit "Cell library whose delays are checked: unit or default."
      $ dt_arg Arg.float $ eps_lint_arg)

let check_cmd =
  let run circuit spec dt domains =
    print_header circuit;
    let failures = ref 0 in
    let run_one label f =
      let t0 = Unix.gettimeofday () in
      match f () with
      | () -> Printf.printf "  %-16s ok (%.3f s)\n%!" label (Unix.gettimeofday () -. t0)
      | exception (Spsta_engine.Propagate.Sanitize.Violation _ as exn) ->
        incr failures;
        Printf.printf "  %-16s VIOLATION: %s\n%!" label (Printexc.to_string exn)
    in
    run_one "spsta-moments" (fun () ->
        ignore (Analyzer.Moments.analyze ~check:true ~domains circuit ~spec));
    run_one "spsta-grid" (fun () ->
        let module B = (val Spsta_core.Top.discrete_backend ~dt ()) in
        let module A = Spsta_core.Analyzer.Make (B) in
        ignore (A.analyze ~check:true ~domains circuit ~spec));
    run_one "ssta" (fun () ->
        ignore (Spsta_ssta.Ssta.analyze ~check:true ~domains circuit));
    run_one "sta" (fun () -> ignore (Spsta_ssta.Sta.analyze ~check:true ~domains circuit));
    run_one "bounds-ssta" (fun () ->
        ignore (Spsta_ssta.Bounds_ssta.analyze ~check:true ~domains circuit));
    run_one "canonical-ssta" (fun () ->
        let model =
          Spsta_variation.Param_model.create ~sigma_global:0.1 ~sigma_spatial:0.1
            ~sigma_random:0.1 ~grid:4 ()
        in
        let placement = Spsta_variation.Param_model.place model circuit in
        ignore (Spsta_variation.Canonical_ssta.analyze ~check:true ~domains model placement circuit));
    run_one "interval-sta" (fun () ->
        ignore (Spsta_variation.Interval_sta.analyze ~check:true ~domains circuit));
    if !failures > 0 then begin
      Printf.printf "%d analysis(es) reported sanitizer violations\n" !failures;
      exit 3
    end
    else print_endline "all analyses completed with zero sanitizer violations"
  in
  let exits =
    Cmd.Exit.defaults @ [ Cmd.Exit.info ~doc:"on any sanitizer violation." 3 ]
  in
  let info =
    Cmd.info "check" ~exits
      ~doc:"Run every analyzer under the invariant sanitizer"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs SPSTA (both t.o.p. backends), SSTA, corner STA, bounds-based SSTA, \
             canonical-form SSTA and interval STA over the circuit with the per-gate \
             invariant sanitizer installed, reporting the first violation (if any) per \
             analysis with the offending circuit, net, gate kind and level.";
        ]
  in
  Cmd.v info Term.(const run $ circuit $ spec $ dt_arg positive_float $ domains)

let power_cmd =
  let run circuit spec top =
    print_header circuit;
    let density = Spsta_power.Transition_density.of_input_specs circuit ~spec in
    let total_power =
      Spsta_power.Power_model.dynamic_power circuit
        ~density:(Spsta_power.Transition_density.density density)
    in
    Printf.printf "total switching activity: %.2f transitions/cycle\n"
      (Spsta_power.Transition_density.total density);
    Printf.printf "dynamic power (default params): %.3e W\n" total_power;
    if top > 0 then begin
      Printf.printf "top %d nets by power:\n" top;
      let hot =
        Spsta_power.Power_model.per_net_power circuit
          ~density:(Spsta_power.Transition_density.density density)
      in
      List.iteri
        (fun i (id, w) ->
          if i < top then Printf.printf "  %-12s %.3e W\n" (Circuit.net_name circuit id) w)
        hot
    end
  in
  let info = Cmd.info "power" ~doc:"Transition density and dynamic power" in
  Cmd.v info
    Term.(
      const run $ circuit $ spec
      $ top_arg ~default:0 "Also list the N nets with the highest dynamic power (0 = none).")

let exact_prob_cmd =
  let run circuit spec =
    print_header circuit;
    let exact = Spsta_core.Exact_prob.compute circuit ~spec in
    let approx =
      Spsta_core.Signal_prob.compute circuit
        ~p_source:(fun s -> Input_spec.signal_probability (spec s))
    in
    let worst = ref (0, 0.0) in
    let sum = ref 0.0 and n = ref 0 in
    Array.iter
      (fun g ->
        let gap =
          Float.abs
            (Spsta_core.Exact_prob.signal_probability exact g -. Spsta_core.Signal_prob.prob approx g)
        in
        sum := !sum +. gap;
        incr n;
        if gap > snd !worst then worst := (g, gap))
      (Circuit.topo_gates circuit);
    Printf.printf "independence-assumption SP error vs BDD-exact: mean %.5f, worst %.5f at %s\n"
      (if !n = 0 then 0.0 else !sum /. float_of_int !n)
      (snd !worst)
      (Circuit.net_name circuit (fst !worst))
  in
  let info = Cmd.info "exact-prob" ~doc:"BDD-exact signal probabilities vs eq. 5" in
  Cmd.v info Term.(const run $ circuit $ spec)

let paths_cmd =
  let run circuit k model =
    print_header circuit;
    let placement = Spsta_variation.Param_model.place model circuit in
    let paths = Spsta_paths.Path_enum.enumerate ~k circuit in
    let stats = Spsta_paths.Path_stats.analyze model placement circuit paths in
    let crit = Spsta_paths.Path_stats.criticality stats in
    print_endline (Spsta_paths.Path_stats.render circuit ~criticality:crit stats)
  in
  let k_arg =
    let doc = "Number of critical paths to enumerate." in
    Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)
  in
  let info = Cmd.info "paths" ~doc:"Critical paths with variational statistics" in
  Cmd.v info
    Term.(const run $ circuit $ k_arg $ param_model ~default:0.05 (const 4))

let sequential_cmd =
  let run circuit pi_spec cycles seed =
    print_header circuit;
    let fp = Spsta_core.Sequential.fixed_point circuit ~pi_spec in
    Printf.printf "fixed point: %s after %d iterations\n"
      (if Spsta_core.Sequential.converged fp then "converged" else "NOT converged")
      (Spsta_core.Sequential.iterations fp);
    let sim = Spsta_sim.Sequential_sim.simulate ~cycles ~seed circuit ~pi_spec in
    let table =
      Table.create ~headers:[ "flip-flop"; "q (fixed point)"; "q (simulated)" ]
    in
    List.iter
      (fun (qnet, _) ->
        let predicted = Spsta_core.Sequential.ff_final_one fp qnet in
        let s = Spsta_sim.Sequential_sim.stats sim qnet in
        let observed = Monte_carlo.p_one s +. Monte_carlo.p_fall s in
        Table.add_row table
          [ Circuit.net_name circuit qnet; Printf.sprintf "%.4f" predicted;
            Printf.sprintf "%.4f" observed ])
      (Circuit.dffs circuit);
    print_endline (Table.render table)
  in
  let cycles_arg = count_arg "cycles" "Measured simulation cycles." in
  let info = Cmd.info "sequential" ~doc:"Steady-state flip-flop statistics" in
  Cmd.v info Term.(const run $ circuit $ spec $ cycles_arg $ seed_arg)

let chip_delay_cmd =
  let run circuit spec top =
    print_header circuit;
    let r = Spsta_core.Chip_delay.compute circuit ~spec in
    Printf.printf "idle-cycle probability: %.4f\n" (Spsta_core.Chip_delay.p_idle r);
    Printf.printf "chip delay: mean %.3f, stddev %.3f\n" (Spsta_core.Chip_delay.mean r)
      (Spsta_core.Chip_delay.stddev r);
    List.iter
      (fun target ->
        Printf.printf "clock for %.1f%% yield: %.3f\n" (100.0 *. target)
          (Spsta_core.Chip_delay.clock_for_yield r target))
      [ 0.9; 0.99; 0.999 ];
    let crit = Spsta_core.Chip_delay.endpoint_criticality r in
    let limit = if top > 0 then top else List.length crit in
    Printf.printf "endpoint criticality (top %d):\n" limit;
    List.iteri
      (fun i (e, p) ->
        if i < limit then Printf.printf "  %-12s %.4f\n" (Circuit.net_name circuit e) p)
      crit
  in
  let info = Cmd.info "chip-delay" ~doc:"Chip-level delay distribution and yield" in
  Cmd.v info
    Term.(
      const run $ circuit $ spec
      $ top_arg ~default:0 "Show only the N most critical endpoints (0 = all).")

let variation_cmd =
  let run circuit model domains check =
    print_header circuit;
    let placement = Spsta_variation.Param_model.place model circuit in
    let r =
      Spsta_variation.Canonical_ssta.analyze ?check ~domains model placement circuit
    in
    let chip = Spsta_variation.Canonical_ssta.chip_delay r in
    Printf.printf "canonical-form SSTA chip delay: mean %.3f, sigma %.3f\n"
      chip.Spsta_variation.Canonical.mean
      (Spsta_variation.Canonical.stddev chip);
    let e_rise = Spsta_variation.Canonical_ssta.critical_endpoint r `Rise in
    let e_fall = Spsta_variation.Canonical_ssta.critical_endpoint r `Fall in
    let show direction e =
      let a = Spsta_variation.Canonical_ssta.arrival r e in
      let form =
        match direction with
        | `Rise -> a.Spsta_variation.Canonical_ssta.rise
        | `Fall -> a.Spsta_variation.Canonical_ssta.fall
      in
      Printf.printf "critical %s endpoint %s: mean %.3f sigma %.3f\n"
        (match direction with `Rise -> "rise" | `Fall -> "fall")
        (Circuit.net_name circuit e) form.Spsta_variation.Canonical.mean
        (Spsta_variation.Canonical.stddev form)
    in
    show `Rise e_rise;
    show `Fall e_fall;
    if e_rise <> e_fall then
      Printf.printf "rise/fall critical endpoint correlation: %.3f\n"
        (Spsta_variation.Canonical_ssta.endpoint_correlation r `Rise e_rise e_fall)
  in
  let grid_arg =
    let doc = "Spatial-correlation grid dimension." in
    Arg.(value & opt positive_int 4 & info [ "grid" ] ~docv:"G" ~doc)
  in
  let info = Cmd.info "variation" ~doc:"Canonical-form SSTA under process variation" in
  Cmd.v info
    Term.(const run $ circuit $ param_model ~default:0.1 grid_arg $ domains $ check)

let report_cmd =
  let run circuit clock =
    print_header circuit;
    print_endline "structure:";
    List.iter
      (fun (key, value) -> Printf.printf "  %-16s %d\n" key value)
      (Spsta_netlist.Transform.statistics circuit);
    let r = Spsta_ssta.Timing_report.analyze ~clock_period:clock circuit in
    Printf.printf "timing at clock %.2f:\n" clock;
    print_string (Spsta_ssta.Timing_report.render circuit r)
  in
  let clock_arg =
    let doc = "Clock period constraint." in
    Arg.(value & opt positive_float 10.0 & info [ "clock" ] ~docv:"T" ~doc)
  in
  let info = Cmd.info "report" ~doc:"Structural and slack report" in
  Cmd.v info Term.(const run $ circuit $ clock_arg)

(* ---------- optimization workloads ---------- *)

module Criticality = Spsta_opt.Criticality
module Sizer = Spsta_opt.Sizer

let criticality_cmd =
  let run circuit domain spec library dt top json check =
    let crit =
      match domain with
      | `Ssta ->
        let result =
          Spsta_ssta.Ssta.analyze ?check
            ~delay_rf:(fun id -> Cell_library.gate_delays library circuit id)
            circuit
        in
        Criticality.of_ssta result
      | `Grid ->
        let module B = (val Spsta_core.Top.discrete_backend ~dt ()) in
        let module A = Spsta_core.Analyzer.Make (B) in
        let result = A.analyze ?check circuit ~spec in
        Criticality.of_transition_stats circuit ~stats:(fun id dir ->
            A.transition_stats (A.signal result id) dir)
    in
    let chip = Criticality.chip_delay crit in
    let ranked = Criticality.ranked crit in
    let shown = if top > 0 then List.filteri (fun i _ -> i < top) ranked else ranked in
    if json then begin
      let gate (g, c) =
        Json.Obj
          [ ("net", Json.string (Circuit.net_name circuit g));
            ("criticality", Json.float c);
            ("slack", Json.float (Criticality.slack crit g)) ]
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("circuit", Json.string (Circuit.name circuit));
                ("domain", Json.string (match domain with `Ssta -> "ssta" | `Grid -> "grid"));
                ( "chip_delay",
                  Json.Obj
                    [ ("mean", Json.float (Spsta_dist.Normal.mean chip));
                      ("stddev", Json.float (Spsta_dist.Normal.stddev chip));
                      ("q99", Json.float (Criticality.quantile crit 0.99)) ] );
                ("gates", Json.List (List.map gate shown)) ]))
    end
    else begin
      print_header circuit;
      Printf.printf "chip delay: mean %.3f, sigma %.3f, q99 %.3f\n"
        (Spsta_dist.Normal.mean chip) (Spsta_dist.Normal.stddev chip)
        (Criticality.quantile crit 0.99);
      let table = Table.create ~headers:[ "gate"; "criticality"; "slack" ] in
      List.iter
        (fun (g, c) ->
          Table.add_row table
            [ Circuit.net_name circuit g;
              Printf.sprintf "%.4f" c;
              Printf.sprintf "%.3f" (Criticality.slack crit g) ])
        shown;
      print_endline (Table.render table)
    end
  in
  let domain_arg =
    let doc =
      "Timing domain the criticality is computed in: ssta (Clark moment-matched \
       arrivals under cell-library delays) or grid (discretised SPSTA t.o.p. \
       transition statistics)."
    in
    Arg.(value & opt (Arg.enum [ ("ssta", `Ssta); ("grid", `Grid) ]) `Ssta
         & info [ "domain" ] ~docv:"DOMAIN" ~doc)
  in
  let info =
    Cmd.info "criticality"
      ~doc:"Per-gate statistical criticality and slack"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Computes the probability every gate lies on the statistically critical \
             path: Clark tightness splits the chip delay over endpoints and a reverse \
             topological pass distributes each gate's criticality over its fan-in.  \
             Available in the SSTA domain (normal arrivals under cell-library delays) \
             and the grid-SPSTA domain (transition statistics of the discretised \
             t.o.p. functions).";
        ]
  in
  Cmd.v info
    Term.(
      const run $ circuit $ domain_arg $ spec
      $ library ~default:`Default "Cell library for the ssta domain: unit or default."
      $ dt_arg positive_float
      $ top_arg ~default:20 "Show only the N most critical gates (0 = all)."
      $ json_arg $ check)

module Static = Spsta_analysis.Static
module Crit_bounds = Spsta_analysis.Crit_bounds
module Reconvergence = Spsta_analysis.Reconvergence

let static_cmd =
  let run names pass_str library p_source top json min_regions cross =
    let passes =
      match String.trim pass_str with
      | "" | "all" -> Static.all_passes
      | s ->
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun n -> n <> "")
        |> List.map (fun n ->
               match Static.pass_of_name n with
               | Some p -> p
               | None -> die "unknown pass %s (const, reconv, obs, crit or all)" n)
    in
    let p_source =
      match p_source with
      | None -> None
      | Some p when p >= 0.0 && p <= 1.0 -> Some (fun _ -> p)
      | Some p -> die "--p-source %g outside [0,1]" p
    in
    let short = ref 0 in
    let analyse name =
      let circuit = load_circuit name in
      let t =
        Static.run ~passes ?p_source
          ~delay_bounds:(fun id -> Crit_bounds.bounds_of_library library circuit id)
          circuit
      in
      ( match (min_regions, t.Static.reconvergence) with
      | n, Some r when n > 0 && Reconvergence.num_regions r < n -> incr short
      | _ -> () );
      let widest = Engine.widest_regions t in
      let shown = if top > 0 then List.filteri (fun i _ -> i < top) widest else widest in
      let checked =
        if cross then
          match t.Static.reconvergence with
          | Some r -> Reconvergence.cross_check ?p_source circuit r
          | None -> []
        else []
      in
      (name, circuit, t, shown, checked)
    in
    let results = List.map analyse names in
    if json then begin
      let one (name, circuit, t, shown, checked) =
        let base =
          [ ("circuit", Json.string name);
            ("nets", Json.int (Circuit.num_nets circuit));
            ("gates", Json.int (Array.length (Circuit.topo_gates circuit)));
            ( "passes",
              Json.List
                (List.map (fun p -> Json.string (Static.pass_name p)) passes) );
            ("facts", Engine.fact_counts_json t);
            ("regions", Json.List (List.map (Engine.region_json circuit) shown)) ]
        in
        let crit =
          match t.Static.criticality with
          | Some c -> [ ("t_lb", Json.float (Crit_bounds.t_lb c)) ]
          | None -> []
        in
        let xs =
          if cross then
            [ ( "cross_check",
                Json.List
                  (List.map
                     (fun (net, eq5, exact) ->
                       Json.Obj
                         [ ("net", Json.string (Circuit.net_name circuit net));
                           ("eq5", Json.float eq5);
                           ("exact", Json.float exact) ])
                     checked) ) ]
          else []
        in
        Json.Obj (base @ crit @ xs)
      in
      print_endline (Json.to_string (Json.List (List.map one results)))
    end
    else
      List.iter
        (fun (_, circuit, t, shown, checked) ->
          print_header circuit;
          List.iter
            (fun (k, v) -> Printf.printf "  %-22s %d\n" k v)
            (Static.fact_counts t);
          ( match t.Static.criticality with
          | Some c -> Printf.printf "  %-22s %.3f\n" "t_lb" (Crit_bounds.t_lb c)
          | None -> () );
          if shown <> [] then begin
            let table = Table.create ~headers:[ "stem"; "merge"; "width"; "depth"; "gates" ] in
            List.iter
              (fun (r : Reconvergence.region) ->
                Table.add_row table
                  [ Circuit.net_name circuit r.stem;
                    Circuit.net_name circuit r.merge;
                    string_of_int r.width;
                    string_of_int r.depth;
                    (match r.gates with Some n -> string_of_int n | None -> ">cap") ])
              shown;
            print_endline (Table.render table)
          end;
          List.iter
            (fun (net, eq5, exact) ->
              Printf.printf "  cross-check %-12s eq5 %.6f exact %.6f (err %.2e)\n"
                (Circuit.net_name circuit net) eq5 exact (abs_float (eq5 -. exact)))
            checked)
        results;
    if !short > 0 then die "%d circuit(s) below --min-regions %d" !short min_regions
  in
  let pass_arg =
    let doc =
      "Comma-separated passes to run: const (constant & probability-interval \
       propagation), reconv (reconvergent-fanout regions), obs (dead/unobservable \
       logic), crit (static criticality bounds), or all."
    in
    Arg.(value & opt string "all" & info [ "pass" ] ~docv:"PASSES" ~doc)
  in
  let p_source_arg =
    let doc =
      "Pin every source to this one-probability (exact 0/1 seeds constant cones); \
       without it sources stay at the sound [0,1] interval."
    in
    Arg.(value & opt (some float) None & info [ "p-source" ] ~docv:"P" ~doc)
  in
  let min_regions_arg =
    let doc =
      "Fail unless the reconv pass finds at least N regions in every circuit \
       (0 disables the gate)."
    in
    Arg.(value & opt int 0 & info [ "min-regions" ] ~docv:"N" ~doc)
  in
  let cross_arg =
    let doc =
      "BDD cross-check: report the eq. 5 (independent) versus exact probability at \
       every region merge net (skipped silently when the circuit exceeds the BDD \
       node budget)."
    in
    Arg.(value & flag & info [ "cross-check" ] ~doc)
  in
  let exits =
    Cmd.Exit.defaults
    @ [ Cmd.Exit.info ~doc:"when a circuit falls below $(b,--min-regions)." 1 ]
  in
  let info =
    Cmd.info "static" ~exits
      ~doc:"Static analysis: constants, reconvergence, observability, criticality"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs four static passes over each circuit's levelized CSR form: \
             Fréchet-bounded constant and probability-interval propagation, \
             reconvergent-fanout region detection (the nets where the \
             paper's eq. 5 independence assumption is unsound), backward \
             observability (dead and constant-masked logic), and min/max arrival \
             bounds that prove gates statically never-critical.  The same facts \
             power the lint dataflow rules, the sizer's $(b,--static-prune) and the \
             server's $(b,static) request kind.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ circuits_arg $ pass_arg
      $ library ~default:`Unit "Cell library bounding the crit pass delays: unit or default."
      $ p_source_arg
      $ top_arg ~default:10 "Show only the N widest reconvergent regions (0 = all)."
      $ json_arg $ min_regions_arg $ cross_arg)

let size_cmd =
  let run circuit quantile target area_budget max_moves candidates threshold sizes ratio
      initial static_prune json check =
    let sized =
      try Sized_library.family ~sizes ~ratio Cell_library.default
      with Invalid_argument msg -> die "%s" msg
    in
    let config =
      {
        Sizer.quantile;
        target = (if target > 0.0 then Some target else None);
        area_budget = (if area_budget > 0.0 then Some area_budget else None);
        max_moves;
        candidates;
        downsize_threshold = threshold;
      }
    in
    let never_critical, prune =
      if static_prune then begin
        let bounds =
          Crit_bounds.run
            ~delay_bounds:(fun id -> Crit_bounds.bounds_of_sized sized circuit id)
            circuit
        in
        (Crit_bounds.num_never_critical bounds, Some (Crit_bounds.never_critical bounds))
      end
      else (0, None)
    in
    let report =
      try
        Sizer.run ~config ?check ?initial:(Engine.initial_sizes sized circuit initial) ?prune
          sized circuit
      with Invalid_argument msg -> die "%s" msg
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("circuit", Json.string (Circuit.name circuit));
                ("quantile", Json.float quantile);
                ("objective_before", Json.float report.Sizer.objective_before);
                ("objective_after", Json.float report.Sizer.objective_after);
                ("area_before", Json.float report.Sizer.area_before);
                ("area_after", Json.float report.Sizer.area_after);
                ("capacitance_before", Json.float report.Sizer.capacitance_before);
                ("capacitance_after", Json.float report.Sizer.capacitance_after);
                ("evaluations", Json.int report.Sizer.evaluations);
                ("never_critical", Json.int never_critical);
                ("pruned", Json.int report.Sizer.pruned);
                ("moves", Json.List (List.map (Engine.move_json circuit) report.Sizer.moves));
                ("yield_before", Engine.yield_curve_json report.Sizer.yield_before);
                ("yield_after", Engine.yield_curve_json report.Sizer.yield_after) ]))
    else begin
      print_header circuit;
      Printf.printf "objective (q%.2g): %.4f -> %.4f%s\n" quantile
        report.Sizer.objective_before report.Sizer.objective_after
        (if report.Sizer.objective_after < report.Sizer.objective_before then " (improved)"
         else "");
      Printf.printf "area: %.1f -> %.1f\n" report.Sizer.area_before report.Sizer.area_after;
      Printf.printf "switched capacitance: %.1f -> %.1f\n" report.Sizer.capacitance_before
        report.Sizer.capacitance_after;
      Printf.printf "moves: %d (%d incremental evaluations)\n"
        (List.length report.Sizer.moves)
        report.Sizer.evaluations;
      if static_prune then
        Printf.printf "static prune: %d never-critical gate(s), %d candidate(s) skipped\n"
          never_critical report.Sizer.pruned;
      List.iter
        (fun (m : Sizer.move) ->
          Printf.printf "  %-4s %-12s %d -> %d  objective %.4f  area %.1f\n"
            (Engine.direction_name m.Sizer.direction)
            (Circuit.net_name circuit m.Sizer.net)
            m.Sizer.from_size m.Sizer.to_size m.Sizer.objective_after m.Sizer.area_after)
        report.Sizer.moves
    end
  in
  let quantile_arg =
    let doc = "Objective percentile of the chip-delay distribution, in (0, 1)." in
    let quantile = finite_float (fun q -> q > 0.0 && q < 1.0) "a number in (0, 1)" in
    Arg.(value & opt quantile 0.99 & info [ "quantile" ] ~docv:"Q" ~doc)
  in
  let target_arg =
    let doc = "Target objective: stop upsizing once reached (0 = minimize)." in
    Arg.(value & opt float 0.0 & info [ "target" ] ~docv:"T" ~doc)
  in
  let budget_arg =
    let doc = "Absolute total-area budget (0 = unbounded)." in
    Arg.(value & opt float 0.0 & info [ "area-budget" ] ~docv:"A" ~doc)
  in
  let moves_arg =
    let doc = "Maximum committed moves across both phases." in
    Arg.(value & opt non_negative_int 400 & info [ "max-moves" ] ~docv:"N" ~doc)
  in
  let candidates_arg =
    let doc = "Critical gates trialled per upsize iteration." in
    Arg.(value & opt positive_int 8 & info [ "candidates" ] ~docv:"K" ~doc)
  in
  let threshold_arg =
    let doc = "Criticality at or below which a gate may be downsized." in
    Arg.(value & opt float 0.01 & info [ "downsize-threshold" ] ~docv:"C" ~doc)
  in
  let sizes_arg =
    let doc = "Sized variants per cell." in
    Arg.(value & opt positive_int 4 & info [ "sizes" ] ~docv:"N" ~doc)
  in
  let ratio_arg =
    let doc = "Drive-strength ratio between adjacent sizes (> 1)." in
    let ratio = finite_float (fun r -> r > 1.0) "a finite number above 1" in
    Arg.(value & opt ratio 1.5 & info [ "ratio" ] ~docv:"R" ~doc)
  in
  let initial_arg =
    let doc =
      "Starting assignment: smallest (tightening run) or largest (power recovery: \
       phase B downsizes everything the target can spare)."
    in
    let initial =
      Arg.enum
        [ ("smallest", Spsta_server.Protocol.Smallest); ("largest", Spsta_server.Protocol.Largest) ]
    in
    Arg.(value & opt initial Spsta_server.Protocol.Smallest & info [ "initial" ] ~docv:"START" ~doc)
  in
  let static_prune_arg =
    let doc =
      "Skip upsize trials on gates the static arrival bounds \
       ($(b,spsta static --pass crit)) prove can never be critical under any drive \
       strength in the family; the skipped-candidate count is reported."
    in
    Arg.(value & flag & info [ "static-prune" ] ~doc)
  in
  let info =
    Cmd.info "size"
      ~doc:"Greedy statistical gate sizing on the incremental SSTA engine"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs a TILOS-style sensitivity-guided sizing loop over a derived \
             drive-strength family of the default cell library: upsize the best \
             objective-per-area move on the statistically critical set, then downsize \
             off-critical gates to recover area and switched capacitance.  Every \
             candidate move is evaluated with dirty-cone incremental re-analysis; the \
             loop is deterministic and reproduces bit-identical reports for a fixed \
             circuit and flags.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ circuit $ quantile_arg $ target_arg $ budget_arg $ moves_arg
      $ candidates_arg $ threshold_arg $ sizes_arg $ ratio_arg $ initial_arg
      $ static_prune_arg $ json_arg $ check)

let waveform_cmd =
  let run circuit net_name spec check =
    let net =
      match net_name with
      | Some n -> (
        match Circuit.find circuit n with Some id -> id | None -> die "no net named %s" n )
      | None -> deepest_endpoint circuit
    in
    print_header circuit;
    let module B = (val Spsta_core.Top.discrete_backend ~dt:0.1 ()) in
    let module A = Spsta_core.Analyzer.Make (B) in
    let r = A.analyze ?check circuit ~spec in
    let s = A.signal r net in
    Printf.printf "net %s: " (Circuit.net_name circuit net);
    Format.printf "%a@." Spsta_core.Four_value.pp s.A.probs;
    let show label top =
      let total = Spsta_dist.Discrete.total top in
      if total <= 0.0 then Printf.printf "%s: no transitions\n" label
      else begin
        Printf.printf "%s t.o.p. (P = %.3f, mean %.3f, sigma %.3f, skew %+.3f):\n" label total
          (Spsta_dist.Discrete.mean top) (Spsta_dist.Discrete.stddev top)
          (Spsta_dist.Discrete.skewness top);
        let peak =
          List.fold_left (fun acc (_, m) -> Float.max acc m) 0.0 (Spsta_dist.Discrete.series top)
        in
        List.iter
          (fun (t, m) ->
            if m > peak /. 50.0 then
              Printf.printf "  %7.2f | %s\n" t
                (String.make (int_of_float (Float.round (m /. peak *. 50.0))) '#'))
          (Spsta_dist.Discrete.series top)
      end
    in
    show "rise" s.A.rise;
    show "fall" s.A.fall
  in
  let net_arg =
    let doc = "Net to display (default: the deepest endpoint)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NET" ~doc)
  in
  let info = Cmd.info "waveform" ~doc:"ASCII t.o.p. waveform of a net" in
  Cmd.v info Term.(const run $ circuit $ net_arg $ spec $ check)

let export_cmd =
  let run circuit spec out_dir runs seed =
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let file base = Filename.concat out_dir base in
    let circuit_name = if Circuit.name circuit = "" then "circuit" else Circuit.name circuit in
    (* chip delay distribution *)
    Experiments.Export.write_file
      ~path:(file (circuit_name ^ "_chip_delay.csv"))
      (Experiments.Export.chip_delay_distribution circuit ~spec);
    (* per-endpoint t.o.p. series and MC histogram for the deepest endpoint *)
    let e = deepest_endpoint circuit in
    Experiments.Export.write_file
      ~path:(file (Printf.sprintf "%s_%s_top.csv" circuit_name (Circuit.net_name circuit e)))
      (Experiments.Export.top_series circuit ~spec ~net:e);
    Experiments.Export.write_file
      ~path:(file (Printf.sprintf "%s_%s_mc.csv" circuit_name (Circuit.net_name circuit e)))
      (Experiments.Export.mc_histogram ~runs ~seed circuit ~spec ~net:e);
    Printf.printf "wrote 3 CSV files under %s\n" out_dir
  in
  let out_arg =
    let doc = "Output directory for the CSV files." in
    Arg.(value & opt string "export" & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let info = Cmd.info "export" ~doc:"Export analysis artefacts as CSV" in
  Cmd.v info Term.(const run $ circuit $ spec $ out_arg $ runs_arg $ seed_arg)

let gen_cmd =
  let run name out format =
    match Generator.find_profile name with
    | None -> die "no profile named %s" name
    | Some profile ->
      let circuit = Generator.generate profile in
      let to_string, write_file =
        match format with
        | `Bench -> (Bench_io.to_string, Bench_io.write_file)
        | `Verilog -> (Spsta_netlist.Verilog_io.to_string, Spsta_netlist.Verilog_io.write_file)
      in
      ( match out with
      | None -> print_string (to_string circuit)
      | Some path ->
        write_file circuit path;
        Printf.printf "wrote %s\n" path )
  in
  let out_arg =
    let doc = "Output path (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc)
  in
  let format_arg =
    let doc = "Netlist format: bench (default) or verilog." in
    let format = Arg.enum [ ("bench", `Bench); ("verilog", `Verilog); ("v", `Verilog) ] in
    Arg.(value & opt format `Bench & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let info = Cmd.info "gen" ~doc:"Emit a synthetic suite circuit as .bench or Verilog" in
  Cmd.v info Term.(const run $ circuit_arg $ out_arg $ format_arg)

let experiment_cmd =
  let run id runs seed mc_domains =
    match Experiments.Runner.run ~runs ~seed ~mc_domains id with
    | output -> print_string output
    | exception Not_found ->
      die "unknown experiment %s (one of: %s)" id
        (String.concat ", " Experiments.Runner.experiment_ids)
  in
  let id_arg =
    let doc = "Experiment id: table1, table2, table3, fig1..fig4, summary." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let info = Cmd.info "experiment" ~doc:"Regenerate a paper table or figure" in
  Cmd.v info Term.(const run $ id_arg $ runs_arg $ seed_arg $ mc_domains)

let list_cmd =
  let run () =
    print_endline "suite circuits:";
    List.iter
      (fun c -> Format.printf "  %a@." Circuit.pp_summary c)
      (Experiments.Benchmarks.all ());
    print_endline "experiments:";
    List.iter (Printf.printf "  %s\n") Experiments.Runner.experiment_ids
  in
  let info = Cmd.info "list" ~doc:"List suite circuits and experiments" in
  Cmd.v info Term.(const run $ const ())

(* ---------- service mode ---------- *)

module Server = Spsta_server.Server
module Protocol = Spsta_server.Protocol
module Transport = Spsta_server.Transport

let server_config workers queue cache deadline_ms analysis_domains max_sessions idle_timeout
    store max_frame max_inflight no_fsync =
  let base = Server.default_config in
  {
    base with
    Server.workers = (if workers > 0 then workers else base.Server.workers);
    queue_capacity = (if queue > 0 then queue else base.Server.queue_capacity);
    result_cache = (if cache > 0 then cache else base.Server.result_cache);
    default_deadline_ms = (if deadline_ms > 0.0 then Some deadline_ms else None);
    analysis_domains =
      (if analysis_domains > 0 then analysis_domains else base.Server.analysis_domains);
    max_sessions = (if max_sessions > 0 then max_sessions else base.Server.max_sessions);
    idle_timeout_s = (if idle_timeout > 0.0 then idle_timeout else base.Server.idle_timeout_s);
    store_path = (if store = "" then None else Some store);
    store_fsync = not no_fsync;
    max_frame_bytes = (if max_frame > 0 then max_frame else base.Server.max_frame_bytes);
    max_inflight = (if max_inflight > 0 then max_inflight else base.Server.max_inflight);
  }

let workers_arg =
  let doc = "Worker domains (0 = one per available core)." in
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Bounded job-queue capacity (submissions block when full)." in
  Arg.(value & opt int 0 & info [ "queue" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Result memo-table capacity (entries)." in
  Arg.(value & opt int 0 & info [ "cache" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Default per-request deadline in milliseconds (0 = none)." in
  Arg.(value & opt float 0.0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let analysis_domains_arg =
  let doc =
    "Domains per SPSTA/SSTA propagation within one request (default 1; responses are \
     bit-identical at every value).  Raise only for few large requests — [--workers] \
     already parallelises across requests."
  in
  Arg.(value & opt int 0 & info [ "analysis-domains" ] ~docv:"N" ~doc)

let max_sessions_arg =
  let doc = "Maximum concurrently open timing sessions (0 = default)." in
  Arg.(value & opt int 0 & info [ "max-sessions" ] ~docv:"N" ~doc)

let idle_timeout_arg =
  let doc = "Evict sessions idle longer than this many seconds (socket transports only)." in
  Arg.(value & opt float 0.0 & info [ "idle-timeout" ] ~docv:"S" ~doc)

let store_arg =
  let doc =
    "Persistent result store (append-only JSONL).  Memoised analysis payloads survive \
     restarts, and any instance pointed at the same path answers previously-computed \
     requests as warm cache hits."
  in
  Arg.(value & opt string "" & info [ "store" ] ~docv:"PATH" ~doc)

let max_frame_arg =
  let doc = "Maximum JSONL frame size in bytes on socket transports (0 = default 1 MiB)." in
  Arg.(value & opt int 0 & info [ "max-frame" ] ~docv:"BYTES" ~doc)

let max_inflight_arg =
  let doc = "Maximum in-flight requests per connection before [overloaded] (0 = default)." in
  Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)

let no_fsync_arg =
  let doc = "Skip the fsync after each store append (faster, loses crash durability)." in
  Arg.(value & flag & info [ "no-fsync" ] ~doc)

let config_term =
  Term.(
    const server_config $ workers_arg $ queue_arg $ cache_arg $ deadline_arg
    $ analysis_domains_arg $ max_sessions_arg $ idle_timeout_arg $ store_arg $ max_frame_arg
    $ max_inflight_arg $ no_fsync_arg)

let socket_arg =
  let doc = "Serve on (or connect to) a Unix-domain socket at this path." in
  Arg.(value & opt string "" & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Serve on (or connect to) TCP 127.0.0.1:$(docv)." in
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run config socket port =
    let listen =
      if socket <> "" then Transport.Unix_socket socket
      else if port > 0 then Transport.Tcp port
      else Transport.Stdio (Unix.stdin, Unix.stdout)
    in
    (* transport events are chatter on the stdio transport, where stderr
       already carries the final metrics block *)
    let log = match listen with Transport.Stdio _ -> fun _ -> () | _ -> prerr_endline in
    let t = Transport.run ~config ~log listen in
    prerr_string (Spsta_server.Metrics.render (Server.metrics t))
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Serve JSONL analysis and session requests — from stdin, a Unix-domain socket \
         ($(b,--socket)) or TCP ($(b,--port)).  SIGTERM/SIGINT drain gracefully."
  in
  Cmd.v info Term.(const run $ config_term $ socket_arg $ port_arg)

let batch_cmd =
  let run file config =
    if not (Sys.file_exists file) then die "no request file %s" file;
    let t, responses = Server.run_batch_file ~config file in
    List.iter (fun r -> print_endline (Protocol.response_to_line r)) responses;
    prerr_string (Spsta_server.Metrics.render (Server.metrics t));
    if List.exists (fun r -> not (Protocol.is_ok r)) responses then exit 2
  in
  let file_arg =
    let doc = "JSONL request file (one request object per line)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let exits =
    Cmd.Exit.defaults
    @ [ Cmd.Exit.info ~doc:"when any response in the batch is an error." 2 ]
  in
  let info =
    Cmd.info "batch" ~exits
      ~doc:"Execute a JSONL request file concurrently; print responses in request order"
  in
  Cmd.v info Term.(const run $ file_arg $ config_term)

(* ---------- session client ---------- *)

(* Lock-step JSONL client: one request on the wire at a time, so the
   next line read is always the matching response. *)
let session_rpc ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  match input_line ic with
  | exception End_of_file -> die "server closed the connection"
  | response -> response

let session_request id kind = Protocol.request_to_line { Protocol.id; deadline_ms = None; kind }

let session_expect_ok line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Ok { result; _ }) -> result
  | Ok (Protocol.Error { code; message; _ }) ->
    die "server answered %s: %s" (Protocol.error_code_name code) message
  | Error e -> die "unparseable response: %s" e.Protocol.message

let json_bool json key =
  match Json.member key json with Some (Json.Bool b) -> b | _ -> false

(* Connect to a running server, or — with neither [--socket] nor
   [--port] — run the stdio transport in-process on a pipe pair, so
   scripts and quick experiments need no separate process.  The server
   closes its response end when it stops, so a request sent after a
   [shutdown] reads end-of-file instead of blocking. *)
let session_connect config socket port =
  if socket <> "" then begin
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX socket) in
    ((fun () -> try Unix.shutdown_connection ic with _ -> ()), ic, oc)
  end
  else if port > 0 then begin
    let ic, oc = Unix.open_connection (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) in
    ((fun () -> try Unix.shutdown_connection ic with _ -> ()), ic, oc)
  end
  else begin
    let req_r, req_w = Unix.pipe () in
    let resp_r, resp_w = Unix.pipe () in
    let server =
      Domain.spawn (fun () ->
          ignore (Transport.run ~config ~signals:false (Transport.Stdio (req_r, resp_w)));
          Unix.close resp_w)
    in
    let ic = Unix.in_channel_of_descr resp_r in
    let oc = Unix.out_channel_of_descr req_w in
    let cleanup () =
      close_out_noerr oc;
      Domain.join server;
      Unix.close req_r;
      close_in_noerr ic
    in
    (cleanup, ic, oc)
  end

(* Scripted ECO exercise: open a session, stream [mutations] single-gate
   edits (resizes with an occasional inversion-flip retype), then verify
   the incremental state against a from-scratch sweep and report the
   measured speedup.  Exits non-zero unless the arrivals are
   bit-identical and the speedup clears [--min-speedup]. *)
let session_exercise ic oc circuit mutations seed min_speedup =
  let module Rng = Spsta_util.Rng in
  let module Gate_kind = Spsta_logic.Gate_kind in
  let c = Spsta_server.Cache.default_loader circuit in
  let gates = Circuit.topo_gates c in
  if Array.length gates = 0 then die "circuit %s has no gates to mutate" circuit;
  let rng = Rng.create ~seed in
  let session = Printf.sprintf "exercise-%d" seed in
  let rpc kind = session_expect_ok (session_rpc ic oc (session_request session kind)) in
  let sizes = 4 in
  let opened =
    rpc (Protocol.Session_open { session; circuit; sizes; ratio = 1.5 })
  in
  Printf.printf "opened %s on %s: %d gates, full analysis %.3f ms\n%!" session circuit
    (Array.length gates) (json_float opened "full_ms");
  (* mirror the server-side state so every resize really changes the
     size and every retype flips the current kind *)
  let size_of = Array.make (Circuit.num_nets c) 0 in
  let kind_of =
    Array.map
      (fun g ->
        match Circuit.driver c g with
        | Circuit.Gate { kind; _ } -> kind
        | Circuit.Input | Circuit.Dff_output _ -> Gate_kind.Buf)
      (Array.init (Circuit.num_nets c) Fun.id)
  in
  let flip = function
    | Gate_kind.And -> Gate_kind.Nand
    | Gate_kind.Nand -> Gate_kind.And
    | Gate_kind.Or -> Gate_kind.Nor
    | Gate_kind.Nor -> Gate_kind.Or
    | Gate_kind.Xor -> Gate_kind.Xnor
    | Gate_kind.Xnor -> Gate_kind.Xor
    | Gate_kind.Not -> Gate_kind.Buf
    | Gate_kind.Buf -> Gate_kind.Not
  in
  let applied = ref 0 in
  for i = 1 to mutations do
    let g = gates.(Rng.int rng (Array.length gates)) in
    let net = Circuit.net_name c g in
    let mutation =
      if i mod 5 = 0 then begin
        let gate = flip kind_of.(g) in
        kind_of.(g) <- gate;
        Protocol.Retype { net; gate }
      end
      else begin
        (* a fresh size uniform over the others *)
        let shift = 1 + Rng.int rng (sizes - 1) in
        let size = (size_of.(g) + shift) mod sizes in
        size_of.(g) <- size;
        Protocol.Resize { net; size }
      end
    in
    let payload = rpc (Protocol.Session_mutate { session; mutation }) in
    if json_bool payload "applied" then incr applied
  done;
  let v = rpc (Protocol.Session_verify { session }) in
  let identical = json_bool v "identical" in
  let speedup = json_float v "speedup" in
  Printf.printf
    "%d mutations (%d applied), mean dirty cone %.1f gates\n\
     full sweep %.3f ms, mean incremental %.3f ms, speedup %.1fx\n\
     bit-identical to from-scratch analysis: %b\n%!"
    mutations !applied (json_float v "mean_dirty_cone") (json_float v "full_ms")
    (json_float v "mean_incremental_ms") speedup identical;
  ignore (rpc (Protocol.Session_close { session }));
  if not identical then die "incremental state diverged from the from-scratch analysis";
  if min_speedup > 0.0 && speedup < min_speedup then
    die "speedup %.2fx below required %.2fx" speedup min_speedup

(* Replay a JSONL request file (or stdin) lock-step, printing each
   response; exit 2 if any response is an error. *)
let session_replay ic oc input =
  let ok = ref true in
  ( try
      while true do
        let line = String.trim (input_line input) in
        if line <> "" then begin
          let response = session_rpc ic oc line in
          print_endline response;
          match Protocol.response_of_line response with
          | Ok r -> if not (Protocol.is_ok r) then ok := false
          | Error _ -> ok := false
        end
      done
    with End_of_file -> () );
  if not !ok then exit 2

let session_cmd =
  let run config socket port script exercise mutations seed min_speedup =
    let cleanup, ic, oc = session_connect config socket port in
    Fun.protect ~finally:cleanup (fun () ->
        match exercise with
        | Some circuit -> session_exercise ic oc circuit mutations seed min_speedup
        | None -> (
          match script with
          | Some file ->
            if not (Sys.file_exists file) then die "no script file %s" file;
            let input = open_in file in
            Fun.protect ~finally:(fun () -> close_in_noerr input) (fun () ->
                session_replay ic oc input)
          | None -> session_replay ic oc stdin ))
  in
  let script_arg =
    let doc = "Replay a JSONL request file lock-step and print each response." in
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let exercise_arg =
    let doc =
      "Run a scripted ECO exercise against this circuit: open a session, stream random \
       single-gate mutations, verify bit-identity against a from-scratch analysis and \
       report the incremental speedup."
    in
    Arg.(value & opt (some string) None & info [ "exercise" ] ~docv:"CIRCUIT" ~doc)
  in
  let mutations_arg =
    let doc = "Mutations to stream in $(b,--exercise) mode." in
    Arg.(value & opt int 120 & info [ "mutations" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for $(b,--exercise) mode." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"K" ~doc)
  in
  let min_speedup_arg =
    let doc =
      "Fail unless the measured incremental speedup reaches this factor ($(b,--exercise) \
       mode; 0 disables the gate)."
    in
    Arg.(value & opt float 0.0 & info [ "min-speedup" ] ~docv:"X" ~doc)
  in
  let exits =
    Cmd.Exit.defaults
    @ [ Cmd.Exit.info ~doc:"when any replayed response is an error." 2 ]
  in
  let info =
    Cmd.info "session" ~exits
      ~doc:
        "Interactive timing-session client: connect to a server ($(b,--socket) or \
         $(b,--port)) or run one in-process, then stream requests from a script, an \
         exercise generator, or stdin."
  in
  Cmd.v info
    Term.(
      const run $ config_term $ socket_arg $ port_arg $ script_arg $ exercise_arg
      $ mutations_arg $ seed_arg $ min_speedup_arg)

let subcommands =
  [ analyze_cmd; lint_cmd; check_cmd; ssta_cmd; mc_cmd; power_cmd; exact_prob_cmd;
    paths_cmd; sequential_cmd; chip_delay_cmd; variation_cmd; report_cmd; criticality_cmd;
    static_cmd; size_cmd; waveform_cmd; export_cmd; gen_cmd; experiment_cmd; list_cmd; serve_cmd;
    batch_cmd; session_cmd ]

let main =
  let doc = "Signal Probability Based Statistical Timing Analysis (DATE 2008)" in
  let info = Cmd.info "spsta" ~version:"1.0.0" ~doc in
  Cmd.group info subcommands

(* Cmdliner's unknown-command error does not enumerate the choices;
   pre-scan the first argument so a typo gets the full subcommand list
   (unambiguous prefixes are still accepted and left to cmdliner). *)
let () =
  let names = List.map Cmd.name subcommands in
  ( match Sys.argv with
  | [||] | [| _ |] -> ()
  | argv ->
    let cmd = argv.(1) in
    let is_prefix name =
      String.length cmd <= String.length name && String.sub name 0 (String.length cmd) = cmd
    in
    if String.length cmd > 0 && cmd.[0] <> '-' && not (List.exists is_prefix names) then begin
      Printf.eprintf "spsta: unknown subcommand %s\navailable subcommands: %s\n" cmd
        (String.concat ", " names);
      Printf.eprintf "run 'spsta --help' for details\n";
      exit Cmd.Exit.cli_error
    end );
  exit (Cmd.eval main)
