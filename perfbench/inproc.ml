(* The server's request path, in-process, for the traced runs:
   [Protocol.request_of_line] -> [Engine.execute] -> [Protocol.response_to_line]
   on a private cache and session registry, one span per call.  The
   execute span is named by the layer it lands in: a memo hit (read from
   the [Cache.result_hits] delta) is [server.execute_hit], a miss is
   named by its kind's analysis, a session request by its operation.
   The circuit loader wraps [Bench_io.parse_string] in [netlist.parse].

   Allocation is counted over decode and execute only: the encoded line
   prints measured times, whose digit counts vary from run to run.  Each
   request starts on an empty minor heap, untimed, so such a line cannot
   move the next request's minor collections, and the counters repeat
   exactly. *)

module Protocol = Spsta_server.Protocol
module Cache = Spsta_server.Cache

type t = { tr : Span.t; cache : Cache.t; sessions : Spsta_server.Session.registry }

let create tr =
  let loader path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    let name = Filename.remove_extension (Filename.basename path) in
    Span.span tr "netlist.parse" (fun () -> Spsta_netlist.Bench_io.parse_string ~name text)
  in
  { tr; cache = Cache.create ~loader ();
    sessions = Spsta_server.Session.create_registry (Spsta_server.Metrics.create ()) }

let layer_of_kind = function
  | Protocol.Analyze _ -> "spsta.moments"
  | Protocol.Ssta _ -> "ssta.analyze"
  | Protocol.Mc _ -> "sim.mc"
  | Protocol.Static _ -> "analysis.static"
  | Protocol.Size _ -> "opt.sizer"
  | Protocol.Paths _ -> "paths.enumerate"
  | Protocol.Session_open _ -> "session.open"
  | Protocol.Session_mutate _ -> "session.mutate"
  | Protocol.Session_query _ -> "session.query"
  | Protocol.Session_verify _ -> "session.verify"
  | Protocol.Session_close _ -> "session.close"
  | Protocol.Stats | Protocol.Shutdown -> "server.control"

type answer = {
  response : Protocol.response;
  line : string; (* encoded *)
  words : float; (* allocated by decode and execute *)
  majors : int; (* major collections during decode and execute *)
  wall : float; (* seconds, the whole request *)
}

let handle t ~rid line =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  let response, encoded, words, majors =
    Span.span ~rid t.tr "request" (fun () ->
        let g0 = Gc.quick_stat () in
        let response =
          match Span.span t.tr "protocol.decode" (fun () -> Protocol.request_of_line line) with
          | Error e -> Protocol.error_response e
          | Ok request ->
            let hits = Cache.result_hits t.cache in
            Span.span_named t.tr
              (fun _ ->
                if Cache.result_hits t.cache > hits then "server.execute_hit"
                else layer_of_kind request.Protocol.kind)
              (fun () -> Spsta_server.Engine.execute ~sessions:t.sessions t.cache request)
        in
        let g1 = Gc.quick_stat () in
        ( response,
          Span.span t.tr "protocol.encode" (fun () -> Protocol.response_to_line response),
          Proc.alloc_words g1 -. Proc.alloc_words g0,
          g1.major_collections - g0.major_collections ))
  in
  { response; line = encoded; words; majors; wall = Unix.gettimeofday () -. t0 }
