(* Benchmark tracking: flattening a machine-readable bench document
   (bench/main.exe --json, schema spsta-bench/6) into named wall-clock
   metrics, appending per-commit records to an append-only JSONL history
   file, and comparing two documents for wall-time regressions.

   The logic is a library of its own, beside the bench binary, so the
   test suite can exercise the regression detector on synthetic
   documents without timing anything. *)

module Json = Spsta_server.Json

(* ---------- metric extraction ---------- *)

(* A tracked metric is a named wall-clock second count.  Keys are
   "<circuit>/<field>" for the per-circuit engine timings,
   "<circuit>/sizing/<field>" for the sizing workload, and
   "<scale-profile>/<field>" for the scale section. *)

let num_fields json =
  match json with
  | Json.Obj fields ->
    List.filter_map
      (fun (k, v) -> match v with Json.Num x -> Some (k, x) | _ -> None)
      fields
  | _ -> []

let name_of json =
  match Json.member "name" json with Some (Json.Str s) -> Some s | _ -> None

let circuit_metrics c =
  match name_of c with
  | None -> []
  | Some name ->
    let timings =
      match Json.member "timings_s" c with
      | Some t -> List.map (fun (k, x) -> (name ^ "/" ^ k, x)) (num_fields t)
      | None -> []
    in
    let sizing =
      match Json.member "sizing" c with
      | Some s ->
        List.filter_map
          (fun key ->
            match Json.member key s with
            | Some (Json.Num x) -> Some (name ^ "/sizing/" ^ key, x)
            | _ -> None)
          [ "full_analysis_s"; "incremental_update_s"; "sizer_s" ]
      | None -> []
    in
    timings @ sizing

(* scale entries: every "*_s" field is a wall-clock measurement
   (generate_s, ssta_s, incremental_update_s, ...); ratios and counts
   are skipped. *)
let scale_metrics s =
  match name_of s with
  | None -> []
  | Some name ->
    List.filter_map
      (fun (k, x) ->
        if String.length k > 2 && String.ends_with ~suffix:"_s" k then Some (name ^ "/" ^ k, x)
        else None)
      (num_fields s)

let metrics doc =
  let list_of key =
    match Json.member key doc with Some (Json.List xs) -> xs | _ -> []
  in
  List.concat_map circuit_metrics (list_of "circuits")
  @ List.concat_map scale_metrics (list_of "scale")

(* ---------- history ---------- *)

let history_schema = "spsta-bench-history/1"

let history_record ~commit ~utc doc =
  let carry key =
    match Json.member key doc with Some v -> [ (key, v) ] | None -> []
  in
  Json.Obj
    ([ ("schema", Json.string history_schema);
       ("commit", Json.string commit);
       ("utc", Json.string utc) ]
    @ carry "host_cores" @ carry "domains"
    @ [ ("metrics", Json.Obj (List.map (fun (k, x) -> (k, Json.float x)) (metrics doc))) ])

(* One compact JSON record per line, append-only: the file is a
   chronological log across commits, never rewritten. *)
let append_history ~path record =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string record);
  output_char oc '\n';
  close_out oc

(* ---------- regression comparison ---------- *)

type regression = { metric : string; base_s : float; current_s : float; ratio : float }

let default_threshold = 0.15
let min_base_s = 1e-4
let min_delta_s = 0.005

(* Metrics are matched by name; anything present in only one document is
   skipped (the tracked suites need not coincide), as are metrics whose
   baseline sits below [min_base_s].  The bench harness already
   stabilises small timings by batching (min over at least three
   >= 10 ms batches), so the floor only has to screen out the
   few-microsecond entries where loop overhead and timer granularity,
   not the measured kernel, decide the figure.

   A regression must clear the relative [threshold] AND grow by at
   least [min_delta_s] of absolute wall time.  The absolute floor is
   what keeps the gate usable on shared hosts: a few-millisecond metric
   can drift 30-40% purely from scheduler interference sustained across
   every batch, and an absolute drift of a millisecond or two is below
   anything the gate could act on anyway.  Real regressions on the
   entries that matter (tens of milliseconds to seconds) clear both
   bars comfortably.

   "*_baseline" metrics are reference measurements, not performance
   products: they time a deliberately-unoptimised configuration (e.g.
   the untruncated grid kernels) purely to anchor an in-process speedup
   ratio.  They are recorded in documents and history for post-hoc
   analysis but excluded from the gate — there is no optimised code
   path behind them to regress, and the untruncated configuration's
   giant transient allocations make it structurally the noisiest entry
   in the suite. *)
let is_reference name = String.ends_with ~suffix:"_baseline" name

let compare_docs ?(threshold = default_threshold) ~base ~current () =
  let base_metrics = metrics base in
  let current_metrics = metrics current in
  let compared = ref 0 and regressions = ref [] in
  List.iter
    (fun (name, base_s) ->
      match List.assoc_opt name current_metrics with
      | _ when is_reference name -> ()
      | Some current_s when base_s >= min_base_s && base_s > 0.0 ->
        incr compared;
        let ratio = current_s /. base_s in
        if ratio > 1.0 +. threshold && current_s -. base_s > min_delta_s then
          regressions := { metric = name; base_s; current_s; ratio } :: !regressions
      | Some _ | None -> ())
    base_metrics;
  (!compared, List.rev !regressions)
