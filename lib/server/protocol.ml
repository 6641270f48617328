(* JSON-lines request/response codec for the timing-analysis service.

   One request per line, one response per line.  Batch requests mirror
   the CLI subcommand flags:

     {"id":"r1","kind":"analyze","circuit":"s344","case":"II"}
     {"id":"r2","kind":"mc","circuit":"s344","runs":2000,"seed":7}
     {"id":"r3","kind":"ssta","circuit":"s1196"}
     {"id":"r4","kind":"paths","circuit":"s386","k":8,"sigma_global":0.05}
     {"id":"r5","kind":"size","circuit":"s344","quantile":0.99,"max_moves":50}
     {"id":"r6","kind":"stats"}
     {"id":"r7","kind":"shutdown"}

   Stateful *session* requests load a circuit once and then stream ECO
   mutations, each answered by a dirty-cone incremental re-analysis:

     {"id":"o","kind":"open","session":"s1","circuit":"s5378"}
     {"id":"m1","kind":"mutate","session":"s1","op":"resize","net":"g123","size":2}
     {"id":"m2","kind":"mutate","session":"s1","op":"retype","net":"g77","gate":"NOR"}
     {"id":"m3","kind":"mutate","session":"s1","op":"set_input","net":"pi4","mu_rise":0.5}
     {"id":"q","kind":"query","session":"s1","top":5}
     {"id":"v","kind":"verify","session":"s1"}
     {"id":"c","kind":"close","session":"s1"}

   Session ids are client-chosen so a mutation stream can be pipelined
   without waiting for the open acknowledgement; the server serializes
   requests of one session and runs distinct sessions in parallel.

   Any analysis request may carry "deadline_ms": the server answers with a
   structured "timeout" error if the result cannot be produced within that
   budget.  Propagation-backed kinds (analyze, ssta) also accept
   "check":true, which runs the analysis under the engine's invariant
   sanitizer and reports any per-gate numeric violation as an
   "invariant_violation" error.  Responses are either

     {"id":"r1","status":"ok","kind":"analyze","elapsed_ms":1.93,"result":{...}}
     {"id":"r1","status":"error","code":"timeout","message":"..."}

   The codec is deliberately dependency-free (module {!Json}) so clients in
   any language can speak it with a stock JSON library. *)

type case = Spsta_experiments.Workloads.case = Case_i | Case_ii

let case_name = Spsta_experiments.Workloads.case_name

let case_of_string = function
  | "I" | "i" | "1" -> Some Case_i
  | "II" | "ii" | "2" -> Some Case_ii
  | _ -> None

(* [check = true] runs the analysis under the engine's invariant
   sanitizer ({!Spsta_engine.Propagate.Sanitize}); a violation comes
   back as an [invariant_violation] error instead of a payload. *)
type analyze_params = { circuit : string; case : case; top : int; check : bool }

(* The request's "mc_engine" field is accepted, checked and re-encoded,
   but ignored: the server answers every mc request with the
   bit-parallel engine, whose results equal the scalar reference's bit
   for bit. *)
type mc_engine = Scalar | Packed

let mc_engine_name = function Scalar -> "scalar" | Packed -> "packed"

let mc_engine_of_string = function
  | "scalar" -> Some Scalar
  | "packed" -> Some Packed
  | _ -> None

type mc_params = {
  circuit : string;
  case : case;
  runs : int;
  seed : int;
  top : int;
  engine : mc_engine;
}

type ssta_params = { circuit : string; top : int; check : bool }

(* What a request's [top] selects: [top <= 0] means every endpoint;
   otherwise the [top] endpoints with the largest [mean_of] (ties broken
   by net id, so the order is stable).  The per-endpoint batch kinds and
   session queries share this rule. *)
let top_endpoints circuit ~top ~mean_of =
  let all = Spsta_netlist.Circuit.endpoints circuit in
  if top <= 0 then all
  else
    List.map (fun e -> (e, mean_of e)) all
    |> List.sort (fun (e1, m1) (e2, m2) ->
           match Float.compare m2 m1 with 0 -> Int.compare e1 e2 | c -> c)
    |> List.filteri (fun i _ -> i < top)
    |> List.map fst

type paths_params = {
  circuit : string;
  k : int;
  sigma_global : float;
  sigma_spatial : float;
  sigma_random : float;
}

(* Gate-sizing request: the knobs of the [spsta size] CLI subcommand
   that change the result — all of them are part of the memo key. *)
type size_initial = Smallest | Largest

let size_initial_name = function Smallest -> "smallest" | Largest -> "largest"

type size_params = {
  circuit : string;
  quantile : float;
  target : float option;
  max_moves : int;
  candidates : int;
  sizes : int;
  ratio : float;
  initial : size_initial;
  check : bool;
}

(* ---------- sessions ---------- *)

(* One ECO edit.  [Resize] swaps the driving cell for another size of
   its group ({!Spsta_netlist.Transform.resize_gate}); [Retype] swaps
   the gate's logical kind in place (same fan-in — an ECO edit, *not*
   semantics-preserving); [Set_input] replaces the arrival statistics of
   a timing source.  Each maps to a dirty-net set of exactly the edited
   net, so the server's incremental re-analysis cost is the fanout
   cone. *)
type mutation =
  | Resize of { net : string; size : int }
  | Retype of { net : string; gate : Spsta_logic.Gate_kind.t }
  | Set_input of {
      net : string;
      mu_rise : float;
      sigma_rise : float;
      mu_fall : float;
      sigma_fall : float;
    }

let mutation_op = function
  | Resize _ -> "resize"
  | Retype _ -> "retype"
  | Set_input _ -> "set_input"

let mutation_net = function
  | Resize { net; _ } | Retype { net; _ } | Set_input { net; _ } -> net

(* [sizes]/[ratio] fix the drive-strength family of the session's sized
   library (see {!Spsta_netlist.Sized_library.family}); every gate
   starts at size 0. *)
type session_open_params = { session : string; circuit : string; sizes : int; ratio : float }

(* Static-analysis request: [passes] holds canonical short pass names
   ({!Spsta_analysis.Static.pass_name}), sorted and deduplicated at
   decode time so equal selections share one memo entry. *)
type static_params = { circuit : string; passes : string list }

type kind =
  | Analyze of analyze_params
  | Ssta of ssta_params
  | Mc of mc_params
  | Paths of paths_params
  | Size of size_params
  | Static of static_params
  | Session_open of session_open_params
  | Session_mutate of { session : string; mutation : mutation }
  | Session_query of { session : string; top : int }
  | Session_verify of { session : string }
  | Session_close of { session : string }
  | Stats
  | Shutdown

let kind_name = function
  | Analyze _ -> "analyze"
  | Ssta _ -> "ssta"
  | Mc _ -> "mc"
  | Paths _ -> "paths"
  | Size _ -> "size"
  | Static _ -> "static"
  | Session_open _ -> "open"
  | Session_mutate _ -> "mutate"
  | Session_query _ -> "query"
  | Session_verify _ -> "verify"
  | Session_close _ -> "close"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

(* The session a request addresses, when any — the server's affinity
   key: requests of one session execute in submission order while
   distinct sessions run in parallel on the pool. *)
let session_of_kind = function
  | Session_open { session; _ }
  | Session_mutate { session; _ }
  | Session_query { session; _ }
  | Session_verify { session }
  | Session_close { session } ->
    Some session
  | Analyze _ | Ssta _ | Mc _ | Paths _ | Size _ | Static _ | Stats | Shutdown -> None

type request = { id : string; deadline_ms : float option; kind : kind }

type error_code =
  | Bad_json
  | Unknown_kind
  | Missing_field
  | Bad_field
  | Circuit_not_found
  | Parse_failure
  | Invariant_violation
  | Timeout
  | Overloaded
  | Frame_too_large
  | Invalid_utf8
  | Unknown_session
  | Session_exists
  | Session_limit
  | Internal

let error_code_name = function
  | Bad_json -> "bad_json"
  | Unknown_kind -> "unknown_kind"
  | Missing_field -> "missing_field"
  | Bad_field -> "bad_field"
  | Circuit_not_found -> "circuit_not_found"
  | Parse_failure -> "parse_error"
  | Invariant_violation -> "invariant_violation"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Frame_too_large -> "frame_too_large"
  | Invalid_utf8 -> "invalid_utf8"
  | Unknown_session -> "unknown_session"
  | Session_exists -> "session_exists"
  | Session_limit -> "session_limit"
  | Internal -> "internal"

let error_code_of_name = function
  | "bad_json" -> Some Bad_json
  | "unknown_kind" -> Some Unknown_kind
  | "missing_field" -> Some Missing_field
  | "bad_field" -> Some Bad_field
  | "circuit_not_found" -> Some Circuit_not_found
  | "parse_error" -> Some Parse_failure
  | "invariant_violation" -> Some Invariant_violation
  | "timeout" -> Some Timeout
  | "overloaded" -> Some Overloaded
  | "frame_too_large" -> Some Frame_too_large
  | "invalid_utf8" -> Some Invalid_utf8
  | "unknown_session" -> Some Unknown_session
  | "session_exists" -> Some Session_exists
  | "session_limit" -> Some Session_limit
  | "internal" -> Some Internal
  | _ -> None

type response =
  | Ok of { id : string; kind : string; elapsed_ms : float; result : Json.t }
  | Error of { id : string option; code : error_code; message : string }

type decode_error = { id : string option; code : error_code; message : string }

let error_response (e : decode_error) = Error { id = e.id; code = e.code; message = e.message }

(* ---------- encoding ---------- *)

let request_to_json (r : request) : Json.t =
  let base = [ ("id", Json.string r.id); ("kind", Json.string (kind_name r.kind)) ] in
  let deadline =
    match r.deadline_ms with None -> [] | Some d -> [ ("deadline_ms", Json.float d) ]
  in
  let params =
    match r.kind with
    | Analyze p ->
      [ ("circuit", Json.string p.circuit); ("case", Json.string (case_name p.case));
        ("top", Json.int p.top) ]
      @ (if p.check then [ ("check", Json.bool true) ] else [])
    | Ssta p ->
      [ ("circuit", Json.string p.circuit); ("top", Json.int p.top) ]
      @ (if p.check then [ ("check", Json.bool true) ] else [])
    | Mc p ->
      [ ("circuit", Json.string p.circuit); ("case", Json.string (case_name p.case));
        ("runs", Json.int p.runs); ("seed", Json.int p.seed); ("top", Json.int p.top);
        ("mc_engine", Json.string (mc_engine_name p.engine)) ]
    | Paths p ->
      [ ("circuit", Json.string p.circuit); ("k", Json.int p.k);
        ("sigma_global", Json.float p.sigma_global);
        ("sigma_spatial", Json.float p.sigma_spatial);
        ("sigma_random", Json.float p.sigma_random) ]
    | Size p ->
      [ ("circuit", Json.string p.circuit); ("quantile", Json.float p.quantile);
        ("max_moves", Json.int p.max_moves); ("candidates", Json.int p.candidates);
        ("sizes", Json.int p.sizes); ("ratio", Json.float p.ratio);
        ("initial", Json.string (size_initial_name p.initial)) ]
      @ (match p.target with None -> [] | Some t -> [ ("target", Json.float t) ])
      @ (if p.check then [ ("check", Json.bool true) ] else [])
    | Static p ->
      [ ("circuit", Json.string p.circuit);
        ("passes", Json.List (List.map Json.string p.passes)) ]
    | Session_open p ->
      [ ("session", Json.string p.session); ("circuit", Json.string p.circuit);
        ("sizes", Json.int p.sizes); ("ratio", Json.float p.ratio) ]
    | Session_mutate { session; mutation } ->
      [ ("session", Json.string session); ("op", Json.string (mutation_op mutation)) ]
      @ ( match mutation with
        | Resize { net; size } -> [ ("net", Json.string net); ("size", Json.int size) ]
        | Retype { net; gate } ->
          [ ("net", Json.string net);
            ("gate", Json.string (Spsta_logic.Gate_kind.to_string gate)) ]
        | Set_input { net; mu_rise; sigma_rise; mu_fall; sigma_fall } ->
          [ ("net", Json.string net); ("mu_rise", Json.float mu_rise);
            ("sigma_rise", Json.float sigma_rise); ("mu_fall", Json.float mu_fall);
            ("sigma_fall", Json.float sigma_fall) ] )
    | Session_query { session; top } ->
      [ ("session", Json.string session); ("top", Json.int top) ]
    | Session_verify { session } | Session_close { session } ->
      [ ("session", Json.string session) ]
    | Stats | Shutdown -> []
  in
  Json.Obj (base @ params @ deadline)

let request_to_line r = Json.to_string (request_to_json r)

let response_to_json = function
  | Ok { id; kind; elapsed_ms; result } ->
    Json.Obj
      [ ("id", Json.string id); ("status", Json.string "ok"); ("kind", Json.string kind);
        ("elapsed_ms", Json.float elapsed_ms); ("result", result) ]
  | Error { id; code; message } ->
    Json.Obj
      [ ("id", (match id with None -> Json.Null | Some i -> Json.string i));
        ("status", Json.string "error");
        ("code", Json.string (error_code_name code));
        ("message", Json.string message) ]

let response_to_line r = Json.to_string (response_to_json r)

(* ---------- decoding ---------- *)

let decode_fail ?id code fmt =
  Printf.ksprintf (fun message -> Stdlib.Error { id; code; message }) fmt

let field_string ?id obj name =
  match Json.member name obj with
  | None -> decode_fail ?id Missing_field "missing required field %S" name
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Stdlib.Ok s
    | None -> decode_fail ?id Bad_field "field %S must be a string" name )

let opt_with ?id obj name convert what ~default =
  match Json.member name obj with
  | None -> Stdlib.Ok default
  | Some v -> (
    match convert v with
    | Some x -> Stdlib.Ok x
    | None -> decode_fail ?id Bad_field "field %S must be %s" name what )

let ( let* ) = Result.bind

let decode_case ?id obj =
  match Json.member "case" obj with
  | None -> Stdlib.Ok Case_i
  | Some v -> (
    match Json.to_string_opt v with
    | None -> decode_fail ?id Bad_field "field \"case\" must be a string"
    | Some s -> (
      match case_of_string s with
      | Some c -> Stdlib.Ok c
      | None -> decode_fail ?id Bad_field "unknown input case %S (use I or II)" s ) )

let decode_request_json (json : Json.t) : (request, decode_error) Stdlib.result =
  match json with
  | Json.Obj _ ->
    let* id =
      match Json.member "id" json with
      | None -> decode_fail Missing_field "missing required field \"id\""
      | Some v -> (
        match Json.to_string_opt v with
        | Some s -> Stdlib.Ok s
        | None -> decode_fail Bad_field "field \"id\" must be a string" )
    in
    let* kind_s = field_string ~id json "kind" in
    let* kind =
      match kind_s with
      | "analyze" ->
        let* circuit = field_string ~id json "circuit" in
        let* case = decode_case ~id json in
        let* top = opt_with ~id json "top" Json.to_int_opt "an integer" ~default:0 in
        let* check = opt_with ~id json "check" Json.to_bool_opt "a boolean" ~default:false in
        Stdlib.Ok (Analyze { circuit; case; top; check })
      | "ssta" ->
        let* circuit = field_string ~id json "circuit" in
        let* top = opt_with ~id json "top" Json.to_int_opt "an integer" ~default:0 in
        let* check = opt_with ~id json "check" Json.to_bool_opt "a boolean" ~default:false in
        Stdlib.Ok (Ssta { circuit; top; check })
      | "mc" ->
        let* circuit = field_string ~id json "circuit" in
        let* case = decode_case ~id json in
        let* runs = opt_with ~id json "runs" Json.to_int_opt "an integer" ~default:10_000 in
        let* seed = opt_with ~id json "seed" Json.to_int_opt "an integer" ~default:42 in
        let* top = opt_with ~id json "top" Json.to_int_opt "an integer" ~default:0 in
        let* engine =
          opt_with ~id json "mc_engine"
            (fun v -> Option.bind (Json.to_string_opt v) mc_engine_of_string)
            {|"scalar" or "packed"|} ~default:Packed
        in
        if runs <= 0 then decode_fail ~id Bad_field "field \"runs\" must be positive"
        else Stdlib.Ok (Mc { circuit; case; runs; seed; top; engine })
      | "paths" ->
        let* circuit = field_string ~id json "circuit" in
        let* k = opt_with ~id json "k" Json.to_int_opt "an integer" ~default:8 in
        let* sigma_global =
          opt_with ~id json "sigma_global" Json.to_float_opt "a number" ~default:0.05
        in
        let* sigma_spatial =
          opt_with ~id json "sigma_spatial" Json.to_float_opt "a number" ~default:0.05
        in
        let* sigma_random =
          opt_with ~id json "sigma_random" Json.to_float_opt "a number" ~default:0.05
        in
        if k <= 0 then decode_fail ~id Bad_field "field \"k\" must be positive"
        else if
          not
            (List.for_all
               (fun x -> Float.is_finite x && x >= 0.0)
               [ sigma_global; sigma_spatial; sigma_random ])
        then decode_fail ~id Bad_field "path sigmas must be finite and non-negative"
        else Stdlib.Ok (Paths { circuit; k; sigma_global; sigma_spatial; sigma_random })
      | "size" ->
        let* circuit = field_string ~id json "circuit" in
        let* quantile =
          opt_with ~id json "quantile" Json.to_float_opt "a number" ~default:0.99
        in
        let* target =
          opt_with ~id json "target"
            (fun v -> Option.map Option.some (Json.to_float_opt v))
            "a number" ~default:None
        in
        let* max_moves =
          opt_with ~id json "max_moves" Json.to_int_opt "an integer" ~default:400
        in
        let* candidates =
          opt_with ~id json "candidates" Json.to_int_opt "an integer" ~default:8
        in
        let* sizes = opt_with ~id json "sizes" Json.to_int_opt "an integer" ~default:4 in
        let* ratio = opt_with ~id json "ratio" Json.to_float_opt "a number" ~default:1.5 in
        let* initial =
          opt_with ~id json "initial"
            (fun v ->
              Option.bind (Json.to_string_opt v) (function
                | "smallest" -> Some Smallest
                | "largest" -> Some Largest
                | _ -> None))
            {|"smallest" or "largest"|} ~default:Smallest
        in
        let* check = opt_with ~id json "check" Json.to_bool_opt "a boolean" ~default:false in
        if not (quantile > 0.0 && quantile < 1.0) then
          decode_fail ~id Bad_field "field \"quantile\" must lie in (0, 1)"
        else if max_moves < 0 then
          decode_fail ~id Bad_field "field \"max_moves\" must be non-negative"
        else if candidates <= 0 then
          decode_fail ~id Bad_field "field \"candidates\" must be positive"
        else if sizes <= 0 then decode_fail ~id Bad_field "field \"sizes\" must be positive"
        else if not (Float.is_finite ratio && ratio > 1.0) then
          decode_fail ~id Bad_field "field \"ratio\" must be finite and exceed 1"
        else if (match target with Some t -> not (t > 0.0) | None -> false) then
          decode_fail ~id Bad_field "field \"target\" must be positive"
        else
          Stdlib.Ok
            (Size
               { circuit; quantile; target; max_moves; candidates; sizes; ratio; initial;
                 check })
      | "static" ->
        let* circuit = field_string ~id json "circuit" in
        let all = List.map Spsta_analysis.Static.pass_name Spsta_analysis.Static.all_passes in
        let* passes =
          match Json.member "passes" json with
          | None -> Stdlib.Ok (List.sort_uniq compare all)
          | Some (Json.List vs) ->
            let rec convert acc = function
              | [] -> Stdlib.Ok (List.rev acc)
              | v :: rest -> (
                match Option.bind (Json.to_string_opt v) Spsta_analysis.Static.pass_of_name with
                | Some p -> convert (Spsta_analysis.Static.pass_name p :: acc) rest
                | None ->
                  decode_fail ~id Bad_field
                    "field \"passes\" entries must name passes (const, reconv, obs, crit)" )
            in
            let* named = convert [] vs in
            if named = [] then
              decode_fail ~id Bad_field "field \"passes\" must not be empty"
            else Stdlib.Ok (List.sort_uniq compare named)
          | Some _ -> decode_fail ~id Bad_field "field \"passes\" must be an array"
        in
        Stdlib.Ok (Static { circuit; passes })
      | "open" ->
        let* session = field_string ~id json "session" in
        let* circuit = field_string ~id json "circuit" in
        let* sizes = opt_with ~id json "sizes" Json.to_int_opt "an integer" ~default:4 in
        let* ratio = opt_with ~id json "ratio" Json.to_float_opt "a number" ~default:1.5 in
        if session = "" then decode_fail ~id Bad_field "field \"session\" must be non-empty"
        else if sizes <= 0 then decode_fail ~id Bad_field "field \"sizes\" must be positive"
        else if not (Float.is_finite ratio && ratio > 1.0) then
          decode_fail ~id Bad_field "field \"ratio\" must be finite and exceed 1"
        else Stdlib.Ok (Session_open { session; circuit; sizes; ratio })
      | "mutate" ->
        let* session = field_string ~id json "session" in
        let* op = field_string ~id json "op" in
        let* net = field_string ~id json "net" in
        let* mutation =
          match op with
          | "resize" ->
            let* size =
              match Json.member "size" json with
              | None -> decode_fail ~id Missing_field "missing required field \"size\""
              | Some v -> (
                match Json.to_int_opt v with
                | Some s when s >= 0 -> Stdlib.Ok s
                | Some _ -> decode_fail ~id Bad_field "field \"size\" must be non-negative"
                | None -> decode_fail ~id Bad_field "field \"size\" must be an integer" )
            in
            Stdlib.Ok (Resize { net; size })
          | "retype" ->
            let* gate_s = field_string ~id json "gate" in
            ( match Spsta_logic.Gate_kind.of_string gate_s with
            | Some gate -> Stdlib.Ok (Retype { net; gate })
            | None -> decode_fail ~id Bad_field "unknown gate kind %S" gate_s )
          | "set_input" ->
            let* mu_rise =
              opt_with ~id json "mu_rise" Json.to_float_opt "a number" ~default:0.0
            in
            let* sigma_rise =
              opt_with ~id json "sigma_rise" Json.to_float_opt "a number" ~default:1.0
            in
            let* mu_fall =
              opt_with ~id json "mu_fall" Json.to_float_opt "a number" ~default:0.0
            in
            let* sigma_fall =
              opt_with ~id json "sigma_fall" Json.to_float_opt "a number" ~default:1.0
            in
            if sigma_rise < 0.0 || sigma_fall < 0.0 then
              decode_fail ~id Bad_field "arrival sigmas must be non-negative"
            else if
              not
                (Float.is_finite mu_rise && Float.is_finite sigma_rise
                && Float.is_finite mu_fall && Float.is_finite sigma_fall)
            then decode_fail ~id Bad_field "arrival statistics must be finite"
            else Stdlib.Ok (Set_input { net; mu_rise; sigma_rise; mu_fall; sigma_fall })
          | other -> decode_fail ~id Bad_field "unknown mutation op %S" other
        in
        Stdlib.Ok (Session_mutate { session; mutation })
      | "query" ->
        let* session = field_string ~id json "session" in
        let* top = opt_with ~id json "top" Json.to_int_opt "an integer" ~default:0 in
        Stdlib.Ok (Session_query { session; top })
      | "verify" ->
        let* session = field_string ~id json "session" in
        Stdlib.Ok (Session_verify { session })
      | "close" ->
        let* session = field_string ~id json "session" in
        Stdlib.Ok (Session_close { session })
      | "stats" -> Stdlib.Ok Stats
      | "shutdown" -> Stdlib.Ok Shutdown
      | other -> decode_fail ~id Unknown_kind "unknown request kind %S" other
    in
    let* deadline_ms =
      match Json.member "deadline_ms" json with
      | None -> Stdlib.Ok None
      | Some v -> (
        match Json.to_float_opt v with
        | Some d when d > 0.0 -> Stdlib.Ok (Some d)
        | Some _ -> decode_fail ~id Bad_field "field \"deadline_ms\" must be positive"
        | None -> decode_fail ~id Bad_field "field \"deadline_ms\" must be a number" )
    in
    Stdlib.Ok { id; deadline_ms; kind }
  | _ -> decode_fail Bad_json "request must be a JSON object"

let request_of_line line : (request, decode_error) Stdlib.result =
  match Json.of_string line with
  | exception Json.Parse_error { pos; message } ->
    Stdlib.Error
      { id = None; code = Bad_json;
        message = Printf.sprintf "invalid JSON at offset %d: %s" pos message }
  | json -> decode_request_json json

(* Response decoding exists for clients and for round-trip testing; the
   server itself only encodes responses. *)
let response_of_line line : (response, decode_error) Stdlib.result =
  match Json.of_string line with
  | exception Json.Parse_error { pos; message } ->
    Stdlib.Error
      { id = None; code = Bad_json;
        message = Printf.sprintf "invalid JSON at offset %d: %s" pos message }
  | json -> (
    let* status = field_string json "status" in
    match status with
    | "ok" ->
      let* id = field_string json "id" in
      let* kind = field_string ~id json "kind" in
      let* elapsed_ms = opt_with ~id json "elapsed_ms" Json.to_float_opt "a number" ~default:0.0 in
      let result = Option.value (Json.member "result" json) ~default:Json.Null in
      Stdlib.Ok (Ok { id; kind; elapsed_ms; result })
    | "error" ->
      let id = Option.bind (Json.member "id" json) Json.to_string_opt in
      let* code_s = field_string ?id json "code" in
      let* code =
        match error_code_of_name code_s with
        | Some c -> Stdlib.Ok c
        | None -> decode_fail ?id Bad_field "unknown error code %S" code_s
      in
      let* message = field_string ?id json "message" in
      Stdlib.Ok (Error { id; code; message })
    | other -> decode_fail Bad_field "unknown status %S" other )

let is_ok = function Ok _ -> true | Error _ -> false

let response_id = function Ok { id; _ } -> Some id | Error { id; _ } -> id
