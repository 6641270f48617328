(* Executes decoded protocol requests against the analysis libraries.

   Every analysis kind goes through the result memo table: the payload is
   computed at most once per (circuit digest, engine, params) key; repeats
   are served from cache.  Payloads are plain {!Json.t} values so cache
   hits cost one encode, not one analysis.

   All analyses here are deterministic given the request (Monte Carlo runs
   sequentially inside one worker with the request's seed), so responses do
   not depend on worker-pool size or scheduling. *)

module Circuit = Spsta_netlist.Circuit
module Analyzer = Spsta_core.Analyzer
module Four_value = Spsta_core.Four_value
module Monte_carlo = Spsta_sim.Monte_carlo
module Stats = Spsta_util.Stats
module Workloads = Spsta_experiments.Workloads

let circuit_header circuit =
  [ ("circuit", Json.string (Circuit.name circuit));
    ("nets", Json.int (Circuit.num_nets circuit));
    ("depth", Json.int (Circuit.depth circuit)) ]

(* Shared per-endpoint payload assembly: every per-endpoint analysis
   scores the endpoints with [mean_of], keeps the [top] best
   ({!Protocol.top_endpoints}), and renders the circuit header, its own
   [extra] request-specific fields, and one [endpoint_json] object per
   selected endpoint. *)
let endpoints_payload circuit ~top ~extra ~mean_of ~endpoint_json =
  let endpoints = Protocol.top_endpoints circuit ~top ~mean_of in
  Json.Obj
    (circuit_header circuit
    @ extra
    @ [ ("endpoints", Json.List (List.map endpoint_json endpoints)) ])

(* The per-endpoint builders also render the CLI's [analyze], [ssta] and
   [mc] tables (at [top = 0]).  [check] is optional for the CLI, where
   [None] defers to the SPSTA_CHECK environment; the server always passes
   the request's flag, so the worker's environment never leaks into an
   answer. *)
let analyze_payload ?check circuit ~case ~top ~domains =
  let spec = Workloads.spec_fn case in
  let result = Analyzer.Moments.analyze ?check ~domains circuit ~spec in
  let endpoint_json e =
    let s = Analyzer.Moments.signal result e in
    let rmu, rsig, rp = Analyzer.Moments.transition_stats s `Rise in
    let fmu, fsig, fp = Analyzer.Moments.transition_stats s `Fall in
    Json.Obj
      [ ("net", Json.string (Circuit.net_name circuit e));
        ("p_rise", Json.float rp); ("mu_rise", Json.float rmu); ("sigma_rise", Json.float rsig);
        ("p_fall", Json.float fp); ("mu_fall", Json.float fmu); ("sigma_fall", Json.float fsig);
        ("sp", Json.float (Four_value.signal_probability s.Analyzer.Moments.probs)) ]
  in
  let mean_of e =
    let s = Analyzer.Moments.signal result e in
    let rmu, _, _ = Analyzer.Moments.transition_stats s `Rise in
    let fmu, _, _ = Analyzer.Moments.transition_stats s `Fall in
    Float.max rmu fmu
  in
  endpoints_payload circuit ~top
    ~extra:[ ("case", Json.string (Protocol.case_name case)) ]
    ~mean_of ~endpoint_json

let ssta_payload ?check circuit ~top ~domains =
  let result = Spsta_ssta.Ssta.analyze ?check ~domains circuit in
  let open Spsta_dist.Normal in
  let endpoint_json e =
    let a = Spsta_ssta.Ssta.arrival result e in
    Json.Obj
      [ ("net", Json.string (Circuit.net_name circuit e));
        ("mu_rise", Json.float (mean a.Spsta_ssta.Ssta.rise));
        ("sigma_rise", Json.float (stddev a.Spsta_ssta.Ssta.rise));
        ("mu_fall", Json.float (mean a.Spsta_ssta.Ssta.fall));
        ("sigma_fall", Json.float (stddev a.Spsta_ssta.Ssta.fall)) ]
  in
  let mean_of e =
    let a = Spsta_ssta.Ssta.arrival result e in
    Float.max (mean a.Spsta_ssta.Ssta.rise) (mean a.Spsta_ssta.Ssta.fall)
  in
  endpoints_payload circuit ~top ~extra:[] ~mean_of ~endpoint_json

let mc_payload ?domains circuit ~case ~runs ~seed ~top =
  let spec = Workloads.spec_fn case in
  let result = Monte_carlo.simulate ~runs ~seed ?domains circuit ~spec in
  let endpoint_json e =
    let s = Monte_carlo.stats result e in
    Json.Obj
      [ ("net", Json.string (Circuit.net_name circuit e));
        ("p_rise", Json.float (Monte_carlo.p_rise s));
        ("mu_rise", Json.float (Stats.acc_mean s.Monte_carlo.rise_times));
        ("sigma_rise", Json.float (Stats.acc_stddev s.Monte_carlo.rise_times));
        ("p_fall", Json.float (Monte_carlo.p_fall s));
        ("mu_fall", Json.float (Stats.acc_mean s.Monte_carlo.fall_times));
        ("sigma_fall", Json.float (Stats.acc_stddev s.Monte_carlo.fall_times));
        ("sp", Json.float (Monte_carlo.signal_probability s)) ]
  in
  let mean_of e =
    let s = Monte_carlo.stats result e in
    Float.max (Stats.acc_mean s.Monte_carlo.rise_times) (Stats.acc_mean s.Monte_carlo.fall_times)
  in
  endpoints_payload circuit ~top
    ~extra:
      [ ("case", Json.string (Protocol.case_name case));
        ("runs", Json.int runs); ("seed", Json.int seed) ]
    ~mean_of ~endpoint_json

let paths_payload circuit ~k ~sigma_global ~sigma_spatial ~sigma_random =
  let model =
    Spsta_variation.Param_model.create ~sigma_global ~sigma_spatial ~sigma_random ~grid:4 ()
  in
  let placement = Spsta_variation.Param_model.place model circuit in
  let paths = Spsta_paths.Path_enum.enumerate ~k circuit in
  let stats = Spsta_paths.Path_stats.analyze model placement circuit paths in
  let crit = Spsta_paths.Path_stats.criticality stats in
  let path_json i p =
    Json.Obj
      [ ("endpoint", Json.string (Circuit.net_name circuit p.Spsta_paths.Path_enum.endpoint));
        ("source", Json.string (Circuit.net_name circuit p.Spsta_paths.Path_enum.source));
        ("length", Json.int (Spsta_paths.Path_enum.length p));
        ("mu", Json.float (Spsta_paths.Path_stats.delay_mean stats i));
        ("sigma", Json.float (Spsta_paths.Path_stats.delay_stddev stats i));
        ("criticality", Json.float crit.(i)) ]
  in
  Json.Obj
    (circuit_header circuit
    @ [ ("k", Json.int k); ("paths", Json.List (List.mapi path_json paths)) ])

(* Sizing-report pieces shared with the CLI's [size --json]. *)

let initial_sizes sized circuit = function
  | Protocol.Smallest -> None
  | Protocol.Largest ->
    Some
      (Spsta_netlist.Sized_library.uniform sized circuit
         ~size:(Spsta_netlist.Sized_library.num_sizes sized - 1))

let direction_name = function `Up -> "up" | `Down -> "down"

let move_json circuit (m : Spsta_opt.Sizer.move) =
  Json.Obj
    [ ("net", Json.string (Circuit.net_name circuit m.net));
      ("direction", Json.string (direction_name m.direction));
      ("from_size", Json.int m.from_size); ("to_size", Json.int m.to_size);
      ("objective_after", Json.float m.objective_after);
      ("area_after", Json.float m.area_after) ]

let yield_curve_json points =
  Json.List
    (List.map (fun (p, t) -> Json.Obj [ ("yield", Json.float p); ("clock", Json.float t) ]) points)

let size_payload circuit ~quantile ~target ~max_moves ~candidates ~sizes ~ratio ~initial
    ~check =
  let sized =
    Spsta_netlist.Sized_library.family ~sizes ~ratio Spsta_netlist.Cell_library.default
  in
  let config =
    { Spsta_opt.Sizer.default_config with
      Spsta_opt.Sizer.quantile; target; max_moves; candidates }
  in
  let initial = initial_sizes sized circuit initial in
  let report = Spsta_opt.Sizer.run ~config ~check ?initial sized circuit in
  let open Spsta_opt.Sizer in
  Json.Obj
    (circuit_header circuit
    @ [ ("quantile", Json.float quantile);
        ("objective_before", Json.float report.objective_before);
        ("objective_after", Json.float report.objective_after);
        ("area_before", Json.float report.area_before);
        ("area_after", Json.float report.area_after);
        ("capacitance_before", Json.float report.capacitance_before);
        ("capacitance_after", Json.float report.capacitance_after);
        ("evaluations", Json.int report.evaluations);
        ("moves", Json.List (List.map (move_json circuit) report.moves));
        ("yield_before", yield_curve_json report.yield_before);
        ("yield_after", yield_curve_json report.yield_after) ])

module Static = Spsta_analysis.Static
module Reconvergence = Spsta_analysis.Reconvergence

(* Reconvergent regions widest first, ties by stem: the order both the
   server and the CLI's [static] report. *)
let widest_regions (t : Static.t) =
  match t.reconvergence with
  | None -> []
  | Some r ->
    List.stable_sort
      (fun (a : Reconvergence.region) b ->
        match compare b.width a.width with 0 -> compare a.stem b.stem | c -> c)
      (Reconvergence.regions r)

let region_json circuit (r : Reconvergence.region) =
  Json.Obj
    [ ("stem", Json.string (Circuit.net_name circuit r.stem));
      ("merge", Json.string (Circuit.net_name circuit r.merge));
      ("width", Json.int r.width); ("depth", Json.int r.depth);
      ("gates", match r.gates with Some n -> Json.int n | None -> Json.Null) ]

let fact_counts_json t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) (Static.fact_counts t))

(* Static dataflow facts.  The pass set arrives canonicalised from the
   decoder; regions are capped so a stem-heavy circuit cannot balloon the
   stored payload. *)
let static_payload circuit ~passes =
  let pass_list = List.filter_map Static.pass_of_name passes in
  let t = Static.run ~passes:pass_list circuit in
  let regions = List.filteri (fun i _ -> i < 25) (widest_regions t) in
  Json.Obj
    (circuit_header circuit
    @ [ ("passes", Json.List (List.map Json.string passes));
        ("facts", fact_counts_json t);
        ("regions", Json.List (List.map (region_json circuit) regions)) ]
    @
    match t.Static.criticality with
    | Some c -> [ ("t_lb", Json.float (Spsta_analysis.Crit_bounds.t_lb c)) ]
    | None -> [])

let compute_payload ~domains (cache : Cache.t) (kind : Protocol.kind) =
  let circuit_of name = (Cache.load_circuit cache name).Cache.circuit in
  match kind with
  | Protocol.Analyze p ->
    analyze_payload (circuit_of p.circuit) ~case:p.case ~top:p.top ~check:p.check ~domains
  | Protocol.Ssta p -> ssta_payload (circuit_of p.circuit) ~top:p.top ~check:p.check ~domains
  | Protocol.Mc p ->
    mc_payload (circuit_of p.circuit) ~case:p.case ~runs:p.runs ~seed:p.seed ~top:p.top
  | Protocol.Paths p ->
    paths_payload (circuit_of p.circuit) ~k:p.k ~sigma_global:p.sigma_global
      ~sigma_spatial:p.sigma_spatial ~sigma_random:p.sigma_random
  | Protocol.Size p ->
    size_payload (circuit_of p.circuit) ~quantile:p.quantile ~target:p.target
      ~max_moves:p.max_moves ~candidates:p.candidates ~sizes:p.sizes ~ratio:p.ratio
      ~initial:p.initial ~check:p.check
  | Protocol.Static p -> static_payload (circuit_of p.circuit) ~passes:p.passes
  | Protocol.Session_open _ | Protocol.Session_mutate _ | Protocol.Session_query _
  | Protocol.Session_verify _ | Protocol.Session_close _ ->
    invalid_arg "Engine.compute_payload: session request"
  | Protocol.Stats | Protocol.Shutdown -> invalid_arg "Engine.compute_payload: control request"

(* Session requests bypass the memo table entirely: their payloads
   depend on the session's accumulated mutation state, not just the
   request parameters. *)
let session_payload sessions cache (kind : Protocol.kind) =
  match kind with
  | Protocol.Session_open p -> Session.open_session sessions cache p
  | Protocol.Session_mutate { session; mutation } -> Session.mutate sessions session mutation
  | Protocol.Session_query { session; top } -> Session.query sessions session ~top
  | Protocol.Session_verify { session } -> Session.verify sessions session
  | Protocol.Session_close { session } -> Session.close sessions session
  | Protocol.Analyze _ | Protocol.Ssta _ | Protocol.Mc _ | Protocol.Paths _ | Protocol.Size _
  | Protocol.Static _ | Protocol.Stats | Protocol.Shutdown ->
    invalid_arg "Engine.session_payload: not a session request"

(* Execute an analysis request, memoising through the cache.  Control
   requests ([stats], [shutdown]) never reach the engine.

   [domains] (default 1) parallelises the levelized propagation
   ({!Spsta_engine.Propagate}) within one request, for every request
   kind backed by a propagation analyzer (analyze, ssta).  Because the
   engine's parallel traversal is bit-identical to the sequential one,
   memo keys need no domains component: cached payloads are valid at
   every domain count.  Monte Carlo likewise runs single-domain inside
   one worker on the bit-parallel engine, whatever the request's
   [mc_engine] says, so its memo key carries no engine either.  The paths
   kind enumerates paths rather than propagating per-net state. *)
let execute ?(domains = 1) ?sessions (cache : Cache.t) (request : Protocol.request) :
    Protocol.response =
  let start = Unix.gettimeofday () in
  let finish result =
    Protocol.Ok
      { id = request.Protocol.id;
        kind = Protocol.kind_name request.Protocol.kind;
        elapsed_ms = (Unix.gettimeofday () -. start) *. 1000.0;
        result }
  in
  try
    match request.Protocol.kind with
    | ( Protocol.Session_open _ | Protocol.Session_mutate _ | Protocol.Session_query _
      | Protocol.Session_verify _ | Protocol.Session_close _ ) as kind ->
      let sessions =
        match sessions with
        | Some s -> s
        | None -> invalid_arg "Engine.execute: session request without a registry"
      in
      finish (session_payload sessions cache kind)
    | _ ->
      let loaded =
        match request.Protocol.kind with
        | Protocol.Analyze { circuit; _ } | Protocol.Ssta { circuit; _ }
        | Protocol.Mc { circuit; _ } | Protocol.Paths { circuit; _ }
        | Protocol.Size { circuit; _ } | Protocol.Static { circuit; _ } ->
          Cache.load_circuit cache circuit
        | Protocol.Session_open _ | Protocol.Session_mutate _ | Protocol.Session_query _
        | Protocol.Session_verify _ | Protocol.Session_close _ | Protocol.Stats
        | Protocol.Shutdown ->
          invalid_arg "Engine.execute: control request"
      in
      let key = Cache.memo_key ~digest:loaded.Cache.digest request.Protocol.kind in
      finish
        (Cache.find_or_compute cache key (fun () ->
             compute_payload ~domains cache request.Protocol.kind))
  with
  | Session.Error { code; message } ->
    Protocol.Error { id = Some request.Protocol.id; code; message }
  | Cache.Load_error { code; message } ->
    Protocol.Error { id = Some request.Protocol.id; code; message }
  | Circuit.Invalid_circuit { message; _ } ->
    Protocol.Error { id = Some request.Protocol.id; code = Protocol.Parse_failure; message }
  | Spsta_engine.Propagate.Sanitize.Violation _ as e ->
    Protocol.Error
      { id = Some request.Protocol.id; code = Protocol.Invariant_violation;
        message = Printexc.to_string e }
  | e ->
    Protocol.Error
      { id = Some request.Protocol.id; code = Protocol.Internal; message = Printexc.to_string e }
