(* Workload eco-session: one client, closed loop, one ECO session.

   The session opens on a ~100k-gate design; the client then streams
   seeded mutations (mostly [resize], some [retype] and [set_input]) with
   a [query] about one request in ten, and ends with [verify].  Targets
   are drawn uniformly over gate nets, every one of which reaches an
   endpoint, so the dirty cones follow the design's own cone-size
   distribution; session.dirty_gates and its p90 record it.

   Output check: every response is [ok] and the final [verify] is
   bit-identical. *)

module Protocol = Spsta_server.Protocol
module Json = Spsta_server.Json
module Gate_kind = Spsta_logic.Gate_kind

let session = "eco"
let now = Unix.gettimeofday

let line ~id kind = Protocol.request_to_line { Protocol.id; deadline_ms = None; kind }

let open_line (d : Gen.design) =
  line ~id:"open"
    (Protocol.Session_open { session; circuit = d.Gen.path; sizes = 4; ratio = 1.5 })

let verify_line = line ~id:"verify" (Protocol.Session_verify { session })

(* Kinds a gate of fan-in [n] may be retyped to. *)
let retypes n =
  List.filter
    (fun k ->
      Gate_kind.min_arity k <= n
      && match Gate_kind.max_arity k with None -> true | Some m -> n <= m)
    (if n = 1 then [ Gate_kind.Not; Gate_kind.Buf ]
     else Gate_kind.[ And; Nand; Or; Nor; Xor; Xnor ])

(* The seeded op stream: [next ()] is the next request line and whether
   it is a mutation. *)
let stream ~seed (d : Gen.design) =
  let st = Random.State.make [| seed; 0xec0 |] in
  let i = ref 0 in
  let pick a = a.(Random.State.int st (Array.length a)) in
  fun () ->
    incr i;
    let id = Printf.sprintf "e%d" !i in
    if Random.State.int st 10 = 0 then
      (line ~id (Protocol.Session_query { session; top = 10 }), false)
    else
      let mutation =
        match Random.State.int st 20 with
        | k when k < 14 ->
          let net, _ = pick d.Gen.gates in
          Protocol.Resize { net; size = Random.State.int st 4 }
        | k when k < 17 ->
          let net, n = pick d.Gen.gates in
          Protocol.Retype { net; gate = pick (Array.of_list (retypes n)) }
        | _ ->
          let f lo span = lo +. Random.State.float st span in
          Protocol.Set_input
            { net = pick d.Gen.sources; mu_rise = f (-0.5) 1.0; sigma_rise = f 0.5 1.0;
              mu_fall = f (-0.5) 1.0; sigma_fall = f 0.5 1.0 }
      in
      (line ~id (Protocol.Session_mutate { session; mutation }), true)

type sample = {
  latency : float; (* s, client-observed *)
  elapsed_ms : float; (* the server's own execute time *)
  dirty : int; (* mutations only; 0 for queries *)
  update_ms : float;
  mutation : bool;
}

let field_num result k = Option.bind (Json.member k result) Json.to_float_opt

(* Checks one response line; the sample if it is [ok]. *)
let sample_of r ~latency ~mutation response =
  match response with
  | Protocol.Ok { elapsed_ms; result; _ } ->
    let num k = Option.value (field_num result k) ~default:0.0 in
    Some
      { latency; elapsed_ms; dirty = int_of_float (num "dirty_gates"); update_ms = num "update_ms";
        mutation }
  | Protocol.Error { code; message; _ } ->
    Report.fail r "eco-session: %s: %s" (Protocol.error_code_name code) message;
    None

let decode r line =
  match Protocol.response_of_line line with
  | Ok response -> Some response
  | Error e ->
    Report.fail r "eco-session: undecodable response: %s" e.Protocol.message;
    None

let check_verify r = function
  | Some (Protocol.Ok { result; _ }) ->
    Report.check r
      (Json.member "identical" result = Some (Json.Bool true))
      "eco-session: verify is not bit-identical: %s" (Json.to_string result)
  | Some (Protocol.Error { message; _ }) -> Report.fail r "eco-session: verify failed: %s" message
  | None -> ()

(* Server start until the socket accepts, plus the open. *)
let setup_once r ~socket d =
  let server, conn, start_s = Proc.start_server ~socket ~workers:Settings.eco_workers in
  let t0 = now () in
  Proc.send conn (open_line d);
  let response = Proc.recv conn in
  let open_s = now () -. t0 in
  Report.attempt r;
  ignore (Option.bind (decode r response) (sample_of r ~latency:open_s ~mutation:false));
  (server, conn, start_s +. open_s)

(* Closed loop over the socket for [seconds]; samples and wall seconds. *)
let socket_loop r conn ~next ~seconds =
  let start = now () in
  let rec go acc =
    if now () -. start >= seconds then (List.rev acc, now () -. start)
    else begin
      let req, mutation = next () in
      let t0 = now () in
      Proc.send conn req;
      let response = Proc.recv conn in
      let latency = now () -. t0 in
      Report.attempt r;
      go
        (match Option.bind (decode r response) (sample_of r ~latency ~mutation) with
        | Some s -> s :: acc
        | None -> acc)
    end
  in
  go []

let verify_socket r conn =
  Report.attempt r;
  Proc.send conn verify_line;
  check_verify r (decode r (Proc.recv conn))

let socket_path () =
  Filename.concat Settings.work_dir (Printf.sprintf "eco-%d.sock" (Unix.getpid ()))

let run ~size ~seed ~seconds ~trace r =
  let dir = Settings.work_dir in
  let d =
    Gen.make ~dir ~seed:(Settings.design_seed ~workload:"eco-session" seed) (Settings.eco_shape size)
  in
  Report.log "design %s: %s" d.Gen.path (Gen.info_to_string d.Gen.info);
  let gates = float_of_int d.Gen.info.Gen.gates in
  let socket = socket_path () in
  if not trace then begin
    let trials = Settings.setup_trials ~workload:"eco-session" size in
    let rec setups k acc =
      let server, conn, s = setup_once r ~socket d in
      if k = trials then (server, conn, List.rev (s :: acc))
      else begin
        Report.check r (Proc.stop_server server conn) "eco-session: server did not stop cleanly";
        setups (k + 1) (s :: acc)
      end
    in
    let server, conn, setup = setups 1 [] in
    let samples, wall = socket_loop r conn ~next:(stream ~seed d) ~seconds in
    verify_socket r conn;
    let rss = Proc.peak_rss_mb server.Proc.pid in
    Report.check r (Proc.stop_server server conn) "eco-session: server did not stop cleanly";
    let lat = List.map (fun s -> s.latency) samples in
    let dirty = List.filter_map (fun s -> if s.mutation then Some (float_of_int s.dirty) else None) samples in
    Report.log "eco-session: %d requests (%d beyond p99), dirty cone median %.0f p90 %.0f" (List.length lat)
      (Quant.beyond 99.0 lat) (Quant.median dirty) (Quant.percentile 90.0 dirty);
    Report.set r "setup_s" (Quant.median setup);
    Report.set r "gates_per_s" (gates *. float_of_int (List.length samples) /. wall);
    Report.set r "latency_p50_ms" (1000.0 *. Quant.median lat);
    Report.set r "latency_p99_ms" (1000.0 *. Quant.percentile 99.0 lat);
    Report.set r "ops_per_s" (float_of_int (List.length samples) /. wall);
    Report.set r "peak_rss_mb" rss;
    Report.set r "accuracy_err" (Accuracy.in_process (Accuracy.designs ~dir))
  end
  else begin
    (* In-process phase first, so nothing timing-dependent runs before
       the counter prefix: the same stream, odd ops traced. *)
    let tr = Span.create () in
    let t = Inproc.create tr in
    (* a compacted heap, so major collections fall at the same points
       on every run and their counter repeats exactly *)
    Gc.compact ();
    Span.set_enabled tr true;
    Report.attempt r;
    ignore (sample_of r ~latency:0.0 ~mutation:false (Inproc.handle t ~rid:0 (open_line d)).response);
    let next = stream ~seed d in
    let prefix = Settings.counter_prefix ~workload:"eco-session" size in
    let inproc_share, socket_share = Settings.traced_shares ~workload:"eco-session" in
    let start = now () in
    let rec go i acc =
      if i > prefix && now () -. start >= seconds *. inproc_share then List.rev acc
      else begin
        let req, mutation = next () in
        Span.set_enabled tr (i mod 2 = 1);
        let a = Inproc.handle t ~rid:i req in
        Report.attempt r;
        let s = sample_of r ~latency:a.Inproc.wall ~mutation a.Inproc.response in
        go (i + 1) ((i, s, String.length a.line, a.words, float_of_int a.majors) :: acc)
      end
    in
    let ops = go 1 [] in
    Span.set_enabled tr false;
    Report.attempt r;
    check_verify r (Some (Inproc.handle t ~rid:(-1) verify_line).response);
    let mutations_of ops =
      List.filter (fun s -> s.mutation) (List.filter_map (fun (_, s, _, _, _) -> s) ops)
    in
    let head = List.filteri (fun i _ -> i < prefix) ops in
    let per_op f = Quant.mean (List.map f head) in
    (* cone sizes over the prefix, so they repeat exactly for a seed *)
    let dirty = List.map (fun s -> float_of_int s.dirty) (mutations_of head) in
    Report.set_median r "session.dirty_gates" dirty;
    Report.set r "session.dirty_gates_p90" (Quant.percentile 90.0 dirty);
    Report.set_median r "protocol.response_bytes"
      (List.map (fun (_, _, b, _, _) -> float_of_int b) ops);
    Report.set r "engine.gate_evals"
      (per_op (fun (_, s, _, _, _) -> match s with Some s -> float_of_int s.dirty | None -> 0.0));
    Report.set r "gc.alloc_words_per_op" (per_op (fun (_, _, _, w, _) -> w));
    Report.set r "gc.major_collections_per_op" (per_op (fun (_, _, _, _, m) -> m));
    let mutate_times parity =
      List.filter_map
        (fun (i, s, _, _, _) ->
          match s with Some s when s.mutation && i mod 2 = parity -> Some s.latency | _ -> None)
        ops
    in
    Report.set r "trace.overhead_ratio"
      (Quant.median (mutate_times 1) /. Quant.median (mutate_times 0));
    (match Span.durations tr "session.open" with
    | d :: _ -> Report.set r "session.open_s" d
    | [] -> ());
    Layers.set_span_medians r tr
      [ ("netlist.parse", "netlist.parse_s", 1.0); ("session.mutate", "session.mutate_ms", 1e3);
        ("session.query", "session.query_ms", 1e3); ("protocol.decode", "protocol.decode_us", 1e6);
        ("protocol.encode", "protocol.encode_us", 1e6) ];
    Layers.finish r tr ~root:"request" ~name:(Printf.sprintf "eco-session-%d" seed);
    (* Socket phase: what only the real transport shows. *)
    let server, conn, _ = setup_once r ~socket d in
    let samples, _ =
      socket_loop r conn ~next:(stream ~seed d) ~seconds:(seconds *. socket_share)
    in
    Report.check r (Proc.stop_server server conn) "eco-session: server did not stop cleanly";
    let overhead = List.map (fun s -> (1000.0 *. s.latency) -. s.elapsed_ms) samples in
    let updates = List.filter_map (fun s -> if s.mutation then Some s.update_ms else None) samples in
    Report.set_median r "transport.overhead_ms" overhead;
    Report.set_median r "session.update_ms" updates;
    Report.log "eco-session socket phase: %d requests, latency p50 %.4f ms; update_ms p50 %.4f + \
                transport overhead p50 %.4f ms"
      (List.length samples)
      (1000.0 *. Quant.median (List.map (fun s -> s.latency) samples))
      (Quant.median updates) (Quant.median overhead)
  end
