(* The batch timing-analysis service.

   Two entry points over the same machinery:

   - [serve ic oc]: long-lived JSON-lines loop.  Requests are read from
     [ic] one per line and dispatched to the worker pool; responses are
     streamed to [oc] as they complete (completion order, tagged with the
     request id).  EOF or a [shutdown] request drains the pool gracefully.
   - [run_batch lines]: execute a request file concurrently and return the
     responses in request order.

   Control requests ([stats], [shutdown]) are answered by the server loop
   itself; analysis requests go through {!Engine.execute} on a worker
   domain, memoised via {!Cache}. *)

type config = {
  workers : int;
  queue_capacity : int;
  circuit_cache : int;
  result_cache : int;
  default_deadline_ms : float option;
  analysis_domains : int;
      (* domains per SPSTA/SSTA propagation inside one request; results
         are bit-identical at every value, so it composes freely with
         the memo table.  Worth raising above 1 only when requests are
         few and circuits large — otherwise [workers] already saturates
         the cores. *)
  max_sessions : int;
  idle_timeout_s : float;
      (* sessions idle longer than this are evicted by the transport's
         sweep; the stdio loop has no sweep, so it only applies on
         sockets *)
  store_path : string option;
      (* persistent backing for the result memo; [None] keeps the memo
         purely in-memory as before *)
  store_fsync : bool;
  max_frame_bytes : int; (* JSONL frame bound on socket transports *)
  max_inflight : int; (* per-connection in-flight request bound *)
}

let default_config =
  { workers = max 1 (Domain.recommended_domain_count () - 1);
    queue_capacity = 64;
    circuit_cache = 32;
    result_cache = 512;
    default_deadline_ms = None;
    analysis_domains = 1;
    max_sessions = 64;
    idle_timeout_s = 300.0;
    store_path = None;
    store_fsync = true;
    max_frame_bytes = 1 lsl 20;
    max_inflight = 32 }

type t = {
  config : config;
  cache : Cache.t;
  metrics : Metrics.t;
  pool : Protocol.response Pool.t;
  sessions : Session.registry;
}

let create ?(config = default_config) () =
  let store = Option.map (Store.open_ ~fsync:config.store_fsync) config.store_path in
  let metrics = Metrics.create () in
  { config;
    cache = Cache.create ?store ~circuit_capacity:config.circuit_cache
        ~result_capacity:config.result_cache ();
    metrics;
    pool = Pool.create ~queue_capacity:config.queue_capacity ~workers:config.workers ();
    sessions = Session.create_registry ~max_sessions:config.max_sessions metrics }

let cache t = t.cache
let metrics t = t.metrics
let sessions t = t.sessions
let config t = t.config

(* Graceful drain: finish everything already accepted, then flush and
   close the persistent store so its last append is durable. *)
let drain t =
  Pool.shutdown t.pool;
  Session.close_all t.sessions;
  match Cache.store t.cache with None -> () | Some s -> Store.close s

let pool_json t =
  Json.Obj
    [ ("workers", Json.int (Pool.num_workers t.pool));
      ("executed", Json.int (Pool.executed t.pool));
      ("timed_out", Json.int (Pool.timed_out t.pool));
      ("callback_errors", Json.int (Pool.callback_errors t.pool)) ]

let stats_response t ~id =
  let result =
    Json.Obj
      [ ("cache", Cache.stats_json t.cache); ("pool", pool_json t);
        ("sessions", Session.stats_json t.sessions);
        ("metrics", Metrics.to_json t.metrics) ]
  in
  Metrics.record t.metrics ~kind:"stats" ~outcome:`Ok ~elapsed_ms:0.0;
  Protocol.Ok { id; kind = "stats"; elapsed_ms = 0.0; result }

let shutdown_response ~id =
  Protocol.Ok
    { id; kind = "shutdown"; elapsed_ms = 0.0;
      result = Json.Obj [ ("drained", Json.Bool true) ] }

let response_of_outcome ~id = function
  | Pool.Done response -> response
  | Pool.Timed_out { budget_ms; elapsed_ms } ->
    Protocol.Error
      { id = Some id; code = Protocol.Timeout;
        message =
          Printf.sprintf "deadline of %.3g ms exceeded (%.3g ms elapsed)" budget_ms elapsed_ms }
  | Pool.Failed e ->
    Protocol.Error
      { id = Some id; code = Protocol.Internal; message = Printexc.to_string e }

let metrics_class = function
  | Pool.Timed_out _ -> `Timeout
  | Pool.Failed _ -> `Error
  | Pool.Done (Protocol.Ok _) -> `Ok
  | Pool.Done (Protocol.Error _) -> `Error

(* Submit an analysis or session request to the pool.  [on_response],
   when given, runs on the completing worker domain after metrics are
   recorded.  Session requests carry their session name as the pool
   affinity key — one session's stream executes in submission order
   while distinct sessions run in parallel — and hold the registry's
   per-name inflight count so the idle sweep never evicts a session
   with queued work. *)
let submission_parts ?on_response t (request : Protocol.request) =
  let deadline_ms =
    match request.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> t.config.default_deadline_ms
  in
  let kind = Protocol.kind_name request.Protocol.kind in
  let affinity = Protocol.session_of_kind request.Protocol.kind in
  Option.iter (Session.retain t.sessions) affinity;
  let submitted = Unix.gettimeofday () in
  let on_complete outcome =
    Option.iter (Session.release t.sessions) affinity;
    let elapsed_ms = (Unix.gettimeofday () -. submitted) *. 1000.0 in
    Metrics.record t.metrics ~kind ~outcome:(metrics_class outcome) ~elapsed_ms;
    match on_response with
    | None -> ()
    | Some f -> f (response_of_outcome ~id:request.Protocol.id outcome)
  in
  let run () =
    Engine.execute ~domains:t.config.analysis_domains ~sessions:t.sessions t.cache request
  in
  (deadline_ms, affinity, on_complete, run)

let submit ?on_response t (request : Protocol.request) =
  let deadline_ms, affinity, on_complete, run = submission_parts ?on_response t request in
  Pool.submit ?deadline_ms ?affinity ~on_complete t.pool run

(* Non-blocking variant for the socket transport: [None] means the pool
   refused admission and the caller must answer [overloaded]. *)
let try_submit ?on_response t (request : Protocol.request) =
  let deadline_ms, affinity, on_complete, run = submission_parts ?on_response t request in
  let ticket = Pool.try_submit ?deadline_ms ?affinity ~on_complete t.pool run in
  if Option.is_none ticket then Option.iter (Session.release t.sessions) affinity;
  ticket

let record_invalid t = Metrics.record t.metrics ~kind:"invalid" ~outcome:`Error ~elapsed_ms:0.0

(* ---------- batch execution ---------- *)

(* Responses come back in request order.  Control requests are evaluated
   when their turn in the output order is reached — i.e. after every
   earlier request has completed — so a trailing [stats] request observes
   the cache traffic of the whole batch. *)
let run_batch ?config lines =
  let t = create ?config () in
  let pending =
    List.map
      (fun line ->
        match Protocol.request_of_line line with
        | Error e ->
          `Inline
            (fun () ->
              record_invalid t;
              Protocol.error_response e)
        | Ok request -> (
          match request.Protocol.kind with
          | Protocol.Stats -> `Inline (fun () -> stats_response t ~id:request.Protocol.id)
          | Protocol.Shutdown ->
            `Inline
              (fun () ->
                Metrics.record t.metrics ~kind:"shutdown" ~outcome:`Ok ~elapsed_ms:0.0;
                shutdown_response ~id:request.Protocol.id)
          | _ -> `Ticket (request, submit t request) ))
      lines
  in
  let responses =
    List.map
      (function
        | `Inline f -> f ()
        | `Ticket ((request : Protocol.request), ticket) ->
          response_of_outcome ~id:request.Protocol.id (Pool.await ticket))
      pending
  in
  drain t;
  (t, responses)

let run_batch_file ?config path =
  let ic = open_in path in
  let lines = ref [] in
  ( try
      while true do
        let line = input_line ic in
        if String.trim line <> "" then lines := line :: !lines
      done
    with End_of_file -> close_in ic );
  run_batch ?config (List.rev !lines)
