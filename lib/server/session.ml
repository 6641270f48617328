(* Stateful incremental timing sessions.

   A session loads a circuit once, runs one full SSTA sweep, and then
   answers a stream of ECO mutations — resize a gate within its
   drive-strength family, retype a gate in place, replace a timing
   source's arrival statistics — each with a dirty-cone incremental
   re-analysis ({!Spsta_ssta.Ssta.update}) that refines the session's
   result in place, so a mutation costs its cone and nothing more.  The
   session owns a *private copy* of the circuit: retype mutates driver
   records in place, and the cache's circuit object is shared with
   concurrent batch requests, so sessions must never alias it.

   Concurrency contract: the worker pool serializes all requests of one
   session via its affinity key (see {!Pool}), so at most one request
   touches a session record at a time and the per-session state — the
   in-place result included — needs no lock of its own.  The registry
   table and the per-name inflight counters are mutex-guarded because
   opens, closes, the idle sweep and the [stats] gauge run on different
   domains.

   Timing bookkeeping: the full sweep on open and every incremental
   update are wall-clocked, so [verify] can report the measured speedup
   of the mutation stream against a from-scratch analysis — the number
   the session-smoke CI step asserts on. *)

module Circuit = Spsta_netlist.Circuit
module Sized = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Ssta = Spsta_ssta.Ssta
module Normal = Spsta_dist.Normal

exception Error of { code : Protocol.error_code; message : string }

let fail code fmt = Printf.ksprintf (fun message -> raise (Error { code; message })) fmt
let now () = Unix.gettimeofday ()

type t = {
  key : string;
  circuit : Circuit.t; (* private copy; retype mutates it in place *)
  sized : Sized.t;
  assignment : Sized.assignment;
  (* arrival overrides for timing sources; absent sources keep the
     paper's standard-normal input statistics *)
  arrivals : (Circuit.id, Ssta.arrival) Hashtbl.t;
  result : Ssta.result; (* refined in place by every mutation *)
  mutable mutations : int;
  mutable incremental : int; (* mutations that re-evaluated >= 1 gate *)
  mutable dirty_total : int; (* gates re-evaluated across those *)
  full_ms : float; (* the full sweep on open *)
  mutable incr_ms_total : float;
  mutable last_active : float;
  created : float;
}

(* Rebuild the circuit from its interface and gate list so the session
   owns every mutable driver record.  Net ids are freshly assigned and
   may differ from the cache's copy; they never leave the session. *)
let copy_circuit circuit =
  let b = Spsta_netlist.Builder_of_circuit.builder_with_interface circuit in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; inputs } ->
        Circuit.Builder.add_gate b ~output:(Circuit.net_name circuit g) kind
          (Array.to_list (Array.map (Circuit.net_name circuit) inputs))
      | Circuit.Input | Circuit.Dff_output _ -> ())
    (Circuit.topo_gates circuit);
  Circuit.Builder.finalize b

let default_arrival = { Ssta.rise = Normal.standard; fall = Normal.standard }

let arrival_of s id =
  match Hashtbl.find_opt s.arrivals id with Some a -> a | None -> default_arrival

let delay_rf s id = Sized.delay_rf s.sized s.circuit s.assignment id

let timed_analyze ~delay_rf ~arrival_of circuit =
  let start = now () in
  let result = Ssta.analyze ~delay_rf ~input_arrival_of:arrival_of circuit in
  (result, (now () -. start) *. 1000.0)

let full_analyze s = timed_analyze ~delay_rf:(delay_rf s) ~arrival_of:(arrival_of s) s.circuit

(* ---------- payload helpers ---------- *)

let critical_json s =
  let rise = Ssta.max_arrival s.result `Rise in
  let fall = Ssta.max_arrival s.result `Fall in
  let worst = if Normal.mean rise >= Normal.mean fall then rise else fall in
  Json.Obj
    [ ("mu", Json.float (Normal.mean worst)); ("sigma", Json.float (Normal.stddev worst));
      ("mu_rise", Json.float (Normal.mean rise)); ("sigma_rise", Json.float (Normal.stddev rise));
      ("mu_fall", Json.float (Normal.mean fall)); ("sigma_fall", Json.float (Normal.stddev fall)) ]

let session_header s =
  [ ("session", Json.string s.key); ("circuit", Json.string (Circuit.name s.circuit));
    ("mutations", Json.int s.mutations) ]

(* ---------- registry ---------- *)

type registry = {
  table : (string, t) Hashtbl.t;
  (* queued-or-running requests per session name, maintained by the
     transport; the idle sweep never evicts a session with work pending *)
  inflight : (string, int ref) Hashtbl.t;
  mutex : Mutex.t;
  max_sessions : int;
  metrics : Metrics.t;
}

let create_registry ?(max_sessions = 64) metrics =
  if max_sessions <= 0 then invalid_arg "Session.create_registry: max_sessions must be positive";
  { table = Hashtbl.create 16; inflight = Hashtbl.create 16; mutex = Mutex.create ();
    max_sessions; metrics }

let locked reg f =
  Mutex.lock reg.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.mutex) f

let open_count reg = locked reg (fun () -> Hashtbl.length reg.table)

let retain reg name =
  locked reg (fun () ->
      match Hashtbl.find_opt reg.inflight name with
      | Some r -> incr r
      | None -> Hashtbl.replace reg.inflight name (ref 1))

let release reg name =
  locked reg (fun () ->
      match Hashtbl.find_opt reg.inflight name with
      | Some r ->
        decr r;
        if !r <= 0 then Hashtbl.remove reg.inflight name
      | None -> ())

let find_session reg name =
  match locked reg (fun () -> Hashtbl.find_opt reg.table name) with
  | Some s -> s
  | None -> fail Protocol.Unknown_session "no open session %S" name

let find_net s name =
  match Circuit.find s.circuit name with
  | Some id -> id
  | None ->
    fail Protocol.Bad_field "no net %S in circuit %S" name (Circuit.name s.circuit)

(* ---------- operations ----------

   Each returns the response payload and raises {!Error} on failure;
   {!Engine} maps the exception to a protocol error response. *)

let open_session reg cache (p : Protocol.session_open_params) =
  (* cheap pre-check before paying for the copy + full sweep; re-checked
     under the mutex at insert time, where it is authoritative *)
  locked reg (fun () ->
      if Hashtbl.mem reg.table p.Protocol.session then
        fail Protocol.Session_exists "session %S is already open" p.Protocol.session;
      if Hashtbl.length reg.table >= reg.max_sessions then
        fail Protocol.Session_limit "session limit %d reached" reg.max_sessions);
  let loaded = Cache.load_circuit cache p.Protocol.circuit in
  let circuit = copy_circuit loaded.Cache.circuit in
  let sized =
    Sized.family ~sizes:p.Protocol.sizes ~ratio:p.Protocol.ratio
      Spsta_netlist.Cell_library.default
  in
  let assignment = Sized.initial circuit in
  let created = now () in
  (* no arrival overrides yet: every source launches at the default *)
  let result, full_ms =
    timed_analyze ~delay_rf:(Sized.delay_rf sized circuit assignment)
      ~arrival_of:(fun _ -> default_arrival) circuit
  in
  let s =
    { key = p.Protocol.session; circuit; sized; assignment; arrivals = Hashtbl.create 8; result;
      mutations = 0; incremental = 0; dirty_total = 0; full_ms; incr_ms_total = 0.0;
      last_active = now (); created }
  in
  locked reg (fun () ->
      if Hashtbl.mem reg.table s.key then
        fail Protocol.Session_exists "session %S is already open" s.key;
      if Hashtbl.length reg.table >= reg.max_sessions then
        fail Protocol.Session_limit "session limit %d reached" reg.max_sessions;
      Hashtbl.replace reg.table s.key s);
  Metrics.session_opened reg.metrics;
  Metrics.session_full_analysis reg.metrics;
  Json.Obj
    ( session_header s
    @ [ ("nets", Json.int (Circuit.num_nets circuit));
        ("gates", Json.int (Circuit.gate_count circuit));
        ("depth", Json.int (Circuit.depth circuit));
        ("sizes", Json.int (Sized.num_sizes sized));
        ("full_ms", Json.float s.full_ms); ("critical", critical_json s) ] )

let apply_mutation s (m : Protocol.mutation) =
  match m with
  | Protocol.Resize { net; size } ->
    let id = find_net s net in
    (match Circuit.driver s.circuit id with
    | Circuit.Gate _ -> ()
    | Circuit.Input | Circuit.Dff_output _ ->
      fail Protocol.Bad_field "net %S is not gate-driven" net);
    if size < 0 || size >= Sized.num_sizes s.sized then
      fail Protocol.Bad_field "size %d outside [0, %d)" size (Sized.num_sizes s.sized);
    Transform.resize_gate s.sized s.circuit s.assignment id ~size
  | Protocol.Retype { net; gate } -> (
    let id = find_net s net in
    try Transform.retype_gate s.circuit id ~kind:gate
    with Invalid_argument message -> fail Protocol.Bad_field "%s" message )
  | Protocol.Set_input { net; mu_rise; sigma_rise; mu_fall; sigma_fall } ->
    let id = find_net s net in
    (match Circuit.driver s.circuit id with
    | Circuit.Input | Circuit.Dff_output _ -> ()
    | Circuit.Gate _ ->
      fail Protocol.Bad_field "net %S is not a timing source" net);
    Hashtbl.replace s.arrivals id
      { Ssta.rise = Normal.make ~mu:mu_rise ~sigma:sigma_rise;
        fall = Normal.make ~mu:mu_fall ~sigma:sigma_fall };
    [ id ]

let mutate reg session (m : Protocol.mutation) =
  let s = find_session reg session in
  let dirty = apply_mutation s m in
  (* [delay_rf] is consulted exactly once per re-evaluated gate, so a
     wrapped counter measures the dirty cone the update actually
     touched *)
  let cone = ref 0 in
  let elapsed_ms =
    match dirty with
    | [] -> 0.0
    | changed ->
      let counting_delay id =
        incr cone;
        delay_rf s id
      in
      let start = now () in
      Ssta.update ~delay_rf:counting_delay ~input_arrival_of:(arrival_of s) s.result ~changed;
      (now () -. start) *. 1000.0
  in
  s.mutations <- s.mutations + 1;
  if !cone > 0 then begin
    s.incremental <- s.incremental + 1;
    s.dirty_total <- s.dirty_total + !cone;
    s.incr_ms_total <- s.incr_ms_total +. elapsed_ms
  end;
  Metrics.session_mutation reg.metrics ~dirty:!cone;
  s.last_active <- now ();
  Json.Obj
    ( session_header s
    @ [ ("op", Json.string (Protocol.mutation_op m));
        ("net", Json.string (Protocol.mutation_net m));
        ("applied", Json.bool (dirty <> [])); ("dirty_gates", Json.int !cone);
        ("update_ms", Json.float elapsed_ms); ("critical", critical_json s) ] )

(* [top = 0] means every endpoint; otherwise the [top] with the largest
   mean arrival, ties broken by net id (same rule as the batch kinds). *)
let query reg session ~top =
  let s = find_session reg session in
  let mean_of e =
    let a = Ssta.arrival s.result e in
    Float.max (Normal.mean a.Ssta.rise) (Normal.mean a.Ssta.fall)
  in
  let endpoints =
    let all = Circuit.endpoints s.circuit in
    if top <= 0 then all
    else
      List.map (fun e -> (e, mean_of e)) all
      |> List.sort (fun (e1, m1) (e2, m2) ->
             match compare m2 m1 with 0 -> compare e1 e2 | c -> c)
      |> List.filteri (fun i _ -> i < top)
      |> List.map fst
  in
  let endpoint_json e =
    let a = Ssta.arrival s.result e in
    Json.Obj
      [ ("net", Json.string (Circuit.net_name s.circuit e));
        ("mu_rise", Json.float (Normal.mean a.Ssta.rise));
        ("sigma_rise", Json.float (Normal.stddev a.Ssta.rise));
        ("mu_fall", Json.float (Normal.mean a.Ssta.fall));
        ("sigma_fall", Json.float (Normal.stddev a.Ssta.fall)) ]
  in
  s.last_active <- now ();
  Json.Obj
    ( session_header s
    @ [ ("critical", critical_json s);
        ("endpoints", Json.List (List.map endpoint_json endpoints)) ] )

(* Exact equality on the wire-level bit patterns: [Int64.bits_of_float]
   distinguishes 0.0 from -0.0 and compares NaNs by payload, which is
   the identity the incremental engine promises. *)
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arrivals_equal a b =
  bits_equal (Normal.mean a.Ssta.rise) (Normal.mean b.Ssta.rise)
  && bits_equal (Normal.stddev a.Ssta.rise) (Normal.stddev b.Ssta.rise)
  && bits_equal (Normal.mean a.Ssta.fall) (Normal.mean b.Ssta.fall)
  && bits_equal (Normal.stddev a.Ssta.fall) (Normal.stddev b.Ssta.fall)

let verify reg session =
  let s = find_session reg session in
  (* best of three sweeps: the smoke test asserts on the speedup ratio,
     and a one-shot timing on a loaded CI box is too noisy to gate on *)
  let fresh = ref None in
  let full_ms = ref infinity in
  for _ = 1 to 3 do
    let result, ms = full_analyze s in
    if ms < !full_ms then begin
      full_ms := ms;
      fresh := Some result
    end
  done;
  let fresh = Option.get !fresh in
  Metrics.session_full_analysis reg.metrics;
  let mismatches = ref 0 in
  for id = 0 to Circuit.num_nets s.circuit - 1 do
    if not (arrivals_equal (Ssta.arrival s.result id) (Ssta.arrival fresh id)) then
      incr mismatches
  done;
  let mean_incr_ms =
    if s.incremental = 0 then 0.0 else s.incr_ms_total /. float_of_int s.incremental
  in
  let speedup = if mean_incr_ms > 0.0 then !full_ms /. mean_incr_ms else 0.0 in
  let mean_cone =
    if s.incremental = 0 then 0.0 else float_of_int s.dirty_total /. float_of_int s.incremental
  in
  s.last_active <- now ();
  Json.Obj
    ( session_header s
    @ [ ("identical", Json.bool (!mismatches = 0)); ("mismatches", Json.int !mismatches);
        ("nets_compared", Json.int (Circuit.num_nets s.circuit));
        ("incremental_analyses", Json.int s.incremental);
        ("mean_dirty_cone", Json.float mean_cone);
        ("full_ms", Json.float !full_ms); ("mean_incremental_ms", Json.float mean_incr_ms);
        ("speedup", Json.float speedup) ] )

let close reg session =
  let s =
    locked reg (fun () ->
        match Hashtbl.find_opt reg.table session with
        | Some s ->
          Hashtbl.remove reg.table session;
          s
        | None -> fail Protocol.Unknown_session "no open session %S" session)
  in
  Metrics.session_closed reg.metrics;
  Json.Obj
    ( session_header s
    @ [ ("incremental_analyses", Json.int s.incremental);
        ("uptime_s", Json.float (now () -. s.created)) ] )

(* Close sessions idle longer than the timeout; sessions with queued or
   running requests are skipped regardless of their clock.  Returns the
   evicted names (for the transport's log line). *)
let evict_idle reg ~idle_timeout_s =
  let cutoff = now () -. idle_timeout_s in
  let victims =
    locked reg (fun () ->
        Hashtbl.fold
          (fun name s acc ->
            let busy =
              match Hashtbl.find_opt reg.inflight name with
              | Some r -> !r > 0
              | None -> false
            in
            if (not busy) && s.last_active < cutoff then name :: acc else acc)
          reg.table []
        |> List.map (fun name ->
               Hashtbl.remove reg.table name;
               name))
  in
  List.iter (fun _ -> Metrics.session_evicted reg.metrics) victims;
  victims

let close_all reg =
  locked reg (fun () -> Hashtbl.reset reg.table)

let stats_json reg =
  Metrics.sessions_json reg.metrics ~open_sessions:(open_count reg)
