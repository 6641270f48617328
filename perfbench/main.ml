(* perfbench: the repository's benchmark.

     sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
     sh perfbench/run.sh --list            metrics, units, layer map
     sh perfbench/run.sh --benchmark-json  BENCHMARK.json, from the catalog
     sh perfbench/run.sh --self-test       the benchmark's own tests

   A run prints one JSON line, last on standard output, with every
   end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
   --smoke runs the workload at tiny size for at most three seconds.  The
   workloads and metrics are described in catalog.ml. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (signoff|eco-session|serve-mix) --seed N --seconds S --trace \
     0|1 [--smoke]\n\
    \       perfbench --list | --benchmark-json | --self-test";
  exit 2

let serve_child socket workers =
  let config =
    { Spsta_server.Server.default_config with workers = int_of_string workers }
  in
  ignore (Spsta_server.Transport.run ~config (Spsta_server.Transport.Unix_socket socket))

(* Removes this run's designs and sockets; traces stay. *)
let clean_work_dir () =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".bench" || Filename.check_suffix f ".sock" then
        try Sys.remove (Filename.concat Settings.work_dir f) with Sys_error _ -> ())
    (try Sys.readdir Settings.work_dir with Sys_error _ -> [||])

let run_workload ~workload ~seed ~seconds ~trace ~size =
  if not (Sys.file_exists Settings.work_dir) then Unix.mkdir Settings.work_dir 0o755;
  let r = Report.create () in
  let run =
    match workload with
    | "signoff" -> Signoff.run
    | "eco-session" -> Eco.run
    | "serve-mix" -> Mix.run
    | _ -> usage ()
  in
  (match run ~size ~seed ~seconds ~trace r with
  | () -> ()
  | exception e ->
    clean_work_dir ();
    Report.log "perfbench: %s failed: %s" workload (Printexc.to_string e);
    exit 1);
  clean_work_dir ();
  if trace then
    Report.set r "fail_ratio" (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted));
  Report.print r ~trace

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--serve-child"; socket; workers ] -> serve_child socket workers
  | [ "--cold-op"; path ] -> Signoff.cold_op path
  | [ "--list" ] -> Catalog.print_list stdout
  | [ "--benchmark-json" ] -> print_string (Catalog.benchmark_json ())
  | [ "--self-test" ] ->
    if not (Sys.file_exists Settings.work_dir) then Unix.mkdir Settings.work_dir 0o755;
    Selftest.run ();
    clean_work_dir ()
  | args ->
    let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
    let size = ref Settings.Full in
    let rec parse = function
      | "--workload" :: w :: rest -> workload := Some w; parse rest
      | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
      | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
      | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
      | "--smoke" :: rest -> size := Settings.Smoke; parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace when Catalog.find_workload workload <> None ->
      let seconds = if !size = Settings.Smoke then Float.min seconds 3.0 else seconds in
      run_workload ~workload ~seed ~seconds ~trace ~size:!size
    | _ -> usage ()
