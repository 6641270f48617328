(* Workload serve-mix: two client connections, each a closed loop,
   against the server with two workers.

   The stream is seeded analyze/ssta/mc/static requests over a dozen
   designs of ~1k to ~20k gates, plus size requests over three fixed
   designs, all loaded by path.  About seven requests in ten repeat an
   earlier one (see [repeat_share]); one fresh request in twenty is sent
   on both connections at once, a duplicate burst.  The distinct memo
   keys the stream draws from (~2,100) outnumber the result memo's
   default capacity (512), a run requests more than 512 of them, and
   repeats reach back past the last 512, so evictions turn some repeats
   into misses.  The stream opens with the accuracy requests (see
   {!Accuracy}).

   Output check: every response is [ok], and every repeat's payload is
   byte-identical to the first answer for its key.

   No recorded traffic exists for this server, so every parameter of the
   mix is a stand-in, not fitted to a trace:
   - kind weights 6/4/3/5/2 (analyze/ssta/mc/static/size): SPSTA moments,
     the paper's own analysis, lead; Monte Carlo, the costly reference,
     is rarer than SSTA; static and size are the later consumers.
   - mc runs 256/512/1024 and seeds 1..6: short what-if simulations,
     each well under the 10,000-run reference the accuracy requests carry.
   - top 0..16 for analyze and ssta, 0/5/10 for mc: a client asks for
     the worst few endpoints, or for every endpoint with the protocol's
     default 0, whose whole-design payload is what makes the codec work.
   - size: quantile 0.9/0.99, at most 2/4/8 moves, 2/4 candidates, on
     designs of at most ~4k gates, where one sizing run takes tens of ms.
   - design popularity: the k-th smallest design of a kind is asked
     about 1/k as often as the smallest (Zipf), as many small blocks and
     few large ones would be.  This also keeps the mean miss cheap
     enough that a run asks well over 512 distinct keys.
   - repeats: see [repeat_share]; duplicate burst: one fresh request in
     twenty, enough for a few dozen racing pairs per run.
   Two choices were made for the benchmark's steadiness, not taken from
   traffic: [repeat_share] (see there), and dealing kinds, designs and
   keys from decks (see [deck]). *)

module Protocol = Spsta_server.Protocol
module Json = Spsta_server.Json

let now = Unix.gettimeofday

type req = {
  key : string; (* the request line with an empty id *)
  kind : Protocol.kind;
  gates : int;
  accuracy : int option; (* position in the accuracy pairs *)
}

type step = Single of req | Pair of req

let line ~id q = Protocol.request_to_line { Protocol.id; deadline_ms = None; kind = q.kind }

let req ?accuracy ~gates kind =
  { key = Protocol.request_to_line { Protocol.id = ""; deadline_ms = None; kind }; kind; gates;
    accuracy }

let cases = Protocol.[ Case_i; Case_ii ]
let pass_names = [ "const"; "crit"; "obs"; "reconv" ]

let subsets xs =
  List.fold_right (fun x acc -> acc @ List.map (fun s -> x :: s) acc) xs [ [] ]
  |> List.filter (( <> ) [])
  |> List.map (List.sort compare)

let tops = List.init 17 Fun.id

let size_kinds (d : Gen.design) =
  List.concat_map
    (fun quantile ->
      List.concat_map
        (fun max_moves ->
          List.map
            (fun candidates ->
              Protocol.Size
                { circuit = d.Gen.path; quantile; target = None; max_moves; candidates; sizes = 4;
                  ratio = 1.5; initial = Protocol.Smallest; check = false })
            [ 2; 4 ])
        [ 2; 4; 8 ])
    [ 0.9; 0.99 ]

let sizing_designs ~dir size =
  List.map (Gen.make ~dir ~seed:Settings.sizing_seed) (Settings.sizing_shapes size)

(* One request kind: its share of fresh requests (slots in a deck of
   20) and its keys, one array per design that takes the kind. *)
type kind = { slots : int; per_design : req array array }

(* The key universe: ~2,100 distinct memo keys. *)
let universe ~(designs : Gen.design list) ~(sizing : Gen.design list) =
  let l = List.concat_map in
  let kind slots designs mk =
    { slots;
      per_design =
        Array.of_list
          (List.map
             (fun (d : Gen.design) ->
               Array.of_list (List.map (req ~gates:d.Gen.info.Gen.gates) (mk d)))
             designs) }
  in
  [ kind 6 designs (fun d ->
        l (fun case ->
            List.map (fun top -> Protocol.Analyze { circuit = d.Gen.path; case; top; check = false }) tops)
          cases);
    kind 4 designs (fun d ->
        List.map (fun top -> Protocol.Ssta { circuit = d.Gen.path; top; check = false }) tops);
    kind 3 designs (fun d ->
        l (fun case ->
            l (fun runs ->
                l (fun seed ->
                    List.map
                      (fun top ->
                        Protocol.Mc { circuit = d.Gen.path; case; runs; seed; top; engine = Protocol.Packed })
                      [ 0; 5; 10 ])
                  [ 1; 2; 3; 4; 5; 6 ])
              [ 256; 512; 1024 ])
          cases);
    kind 5 designs (fun d ->
        List.map (fun passes -> Protocol.Static { circuit = d.Gen.path; passes }) (subsets pass_names));
    kind 2 sizing size_kinds ]

let universe_size u =
  List.fold_left (fun n k -> Array.fold_left (fun n a -> n + Array.length a) n k.per_design) 0 u

(* An endless seeded sequence dealing every item once per round, in a
   fresh order each round.  Kinds, designs and keys are dealt this way
   rather than drawn independently, so every stretch of the stream
   carries the same mix and a run's total cost varies little from seed
   to seed. *)
let deck st items =
  let a = Array.copy items and next = ref (Array.length items) in
  fun () ->
    if !next = Array.length a then begin
      for k = Array.length a - 1 downto 1 do
        let j = Random.State.int st (k + 1) in
        let t = a.(k) in
        a.(k) <- a.(j);
        a.(j) <- t
      done;
      next := 0
    end;
    incr next;
    a.(!next - 1)

(* A deck of design indices, smallest design first: index k appears
   about 12/(k+1) times. *)
let popularity n =
  Array.concat
    (List.init n (fun k -> Array.make (max 1 (Float.to_int (Float.round (12.0 /. float_of_int (k + 1))))) k))

(* A repeat redraws an earlier fresh request by its recency rank r
   (0 = the latest) over every fresh request so far, with P(r) ~ 1/(r+1):
   the Zipf stack-distance model of temporal locality.  Most repeats land
   on recent keys, but once more than 512 fresh keys have been asked, a
   few in a hundred reach back past the memo's capacity and hit or miss
   by its eviction policy.  [repeat_share]: at one half, the median
   latency sat on the gap between memo hits (~0.2 ms) and misses
   (1-400 ms) and moved by 40% from seed to seed; at seven in ten it lies
   inside the hits. *)
let repeat_share = 0.7

let recency_rank st count =
  min (count - 1) (int_of_float (exp (Random.State.float st (log (float_of_int (count + 1))))) - 1)

(* The seeded step stream: accuracy requests first, then the mix. *)
let stream ~seed ~universe ~lead =
  let st = Random.State.make [| seed; 0x31c |] in
  let lead = ref lead in
  let kinds =
    Array.of_list
      (List.map
         (fun k ->
           (deck st (popularity (Array.length k.per_design)), Array.map (deck st) k.per_design))
         universe)
  in
  let next_kind = deck st (Array.concat (List.mapi (fun i k -> Array.make k.slots i) universe)) in
  let history = Hashtbl.create 1024 and count = ref 0 in
  let fresh () =
    let next_design, next_key = kinds.(next_kind ()) in
    let q = next_key.(next_design ()) () in
    Hashtbl.replace history !count q;
    incr count;
    q
  in
  fun () ->
    match !lead with
    | q :: rest ->
      lead := rest;
      Single q
    | [] ->
      if !count > 0 && Random.State.float st 1.0 < repeat_share then
        Single (Hashtbl.find history (!count - 1 - recency_rank st !count))
      else begin
        let q = fresh () in
        if Random.State.int st 20 = 0 then Pair q else Single q
      end

type answer = { q : req; latency : float; elapsed_ms : float; seen : bool }

(* First answer's digest per key; a repeat that differs is a failure. *)
let check_payload r answers (q : req) body =
  let digest = Digest.string body in
  match Hashtbl.find_opt answers q.key with
  | None -> Hashtbl.replace answers q.key digest
  | Some first ->
    Report.check r (Digest.equal first digest) "serve-mix: repeat of %s returned a different payload" q.key

(* ---------- the socket client ---------- *)

type slot = { conn : Proc.conn; mutable busy : (req * float * bool) option }

let socket_loop r slots ~next ~seconds ~accuracy_payloads =
  let answers = Hashtbl.create 1024 in
  let keys = Hashtbl.create 1024 in
  let results = ref [] in
  let ids = ref 0 in
  let pending = ref None in
  let send slot q =
    incr ids;
    Hashtbl.replace keys q.key ();
    slot.busy <- Some (q, now (), Hashtbl.mem answers q.key);
    Report.attempt r;
    Proc.send slot.conn (line ~id:(Printf.sprintf "m%d" !ids) q)
  in
  let idle () = List.filter (fun s -> s.busy = None) slots in
  let rec fill () =
    let step = match !pending with Some s -> s | None -> next () in
    pending := Some step;
    match (step, idle ()) with
    | Single q, s :: _ ->
      pending := None;
      send s q;
      fill ()
    | Pair q, ([ _; _ ] as both) ->
      pending := None;
      List.iter (fun s -> send s q) both;
      fill ()
    | _ -> ()
  in
  let receive slot response =
    match slot.busy with
    | None -> Report.fail r "serve-mix: unsolicited response %s" response
    | Some (q, sent, seen) -> (
      let latency = now () -. sent in
      slot.busy <- None;
      match Protocol.response_of_line response with
      | Error e -> Report.fail r "serve-mix: undecodable response to %s: %s" q.key e.Protocol.message
      | Ok (Protocol.Error { code; message; _ }) ->
        Report.fail r "serve-mix: %s -> %s: %s" q.key (Protocol.error_code_name code) message
      | Ok (Protocol.Ok { elapsed_ms; result; _ }) ->
        check_payload r answers q (Json.to_string result);
        Option.iter (fun i -> accuracy_payloads := (i, result) :: !accuracy_payloads) q.accuracy;
        results := { q; latency; elapsed_ms; seen } :: !results)
  in
  let start = now () in
  let rec go () =
    let running = now () -. start < seconds in
    if running then fill ();
    match List.filter (fun s -> s.busy <> None) slots with
    | [] -> ()
    | busy ->
      (match Unix.select (List.map (fun s -> s.conn.Proc.fd) busy) [] [] 120.0 with
      | [], _, _ -> raise Proc.Timeout
      | ready, _, _ ->
        List.iter
          (fun s ->
            if List.mem s.conn.Proc.fd ready then List.iter (receive s) (Proc.read_lines s.conn))
          busy);
      go ()
  in
  go ();
  (List.rev !results, now () -. start, Hashtbl.length keys)

let socket_path () =
  Filename.concat Settings.work_dir (Printf.sprintf "mix-%d.sock" (Unix.getpid ()))

(* Result-memo and circuit-cache counters from a [stats] response. *)
type counters = { hits : float; misses : float; evictions : float; chits : float; cmisses : float }

let stats r conn =
  Proc.send conn {|{"id":"stats","kind":"stats"}|};
  let json = Json.of_string (Proc.recv conn) in
  let counter path =
    let rec walk j = function
      | [] -> Json.to_float_opt j
      | k :: rest -> Option.bind (Json.member k j) (fun j -> walk j rest)
    in
    match walk json ("result" :: "cache" :: path) with
    | Some x -> x
    | None ->
      Report.fail r "serve-mix: stats has no cache.%s" (String.concat "." path);
      0.0
  in
  { hits = counter [ "results"; "hits" ]; misses = counter [ "results"; "misses" ];
    evictions = counter [ "results"; "evictions" ]; chits = counter [ "circuits"; "hits" ];
    cmisses = counter [ "circuits"; "misses" ] }

let run ~size ~seed ~seconds ~trace r =
  let dir = Settings.work_dir in
  let designs =
    List.map (Gen.make ~dir ~seed:(Settings.design_seed ~workload:"serve-mix" seed)) (Settings.mix_shapes size)
  in
  let sizing = sizing_designs ~dir size in
  List.iter
    (fun (d : Gen.design) -> Report.log "design %s: %s" d.Gen.path (Gen.info_to_string d.Gen.info))
    (designs @ sizing);
  let acc_designs = Accuracy.designs ~dir in
  let lead =
    List.concat
      (List.mapi
         (fun i ((a, m), (d : Gen.design)) ->
           [ req ~accuracy:(2 * i) ~gates:d.Gen.info.Gen.gates a;
             req ~accuracy:((2 * i) + 1) ~gates:d.Gen.info.Gen.gates m ])
         (List.combine (Accuracy.requests acc_designs) acc_designs))
  in
  let universe = universe ~designs ~sizing in
  Report.log "serve-mix: %d distinct keys in the universe" (universe_size universe);
  let socket = socket_path () in
  let open_clients ~trials =
    let rec setups k acc =
      let server, conn, s = Proc.start_server ~socket ~workers:Settings.mix_workers in
      if k = trials then (server, conn, List.rev (s :: acc))
      else begin
        Report.check r (Proc.stop_server server conn) "serve-mix: server did not stop cleanly";
        setups (k + 1) (s :: acc)
      end
    in
    let server, conn, setup = setups 1 [] in
    (server, [ { conn; busy = None }; { conn = Proc.connect server; busy = None } ], setup)
  in
  let close_clients server slots =
    match slots with
    | first :: rest ->
      List.iter (fun s -> Proc.close s.conn) rest;
      Report.check r (Proc.stop_server server first.conn) "serve-mix: server did not stop cleanly"
    | [] -> ()
  in
  let log_counts results c =
    Report.log "serve-mix: %d requests (%d beyond p99), %d repeats; memo %.0f hits, %.0f misses, %.0f evictions"
      (List.length results)
      (Quant.beyond 99.0 (List.map (fun a -> a.latency) results))
      (List.length (List.filter (fun a -> a.seen) results))
      c.hits c.misses c.evictions
  in
  if not trace then begin
    let server, slots, setup = open_clients ~trials:(Settings.setup_trials ~workload:"serve-mix" size) in
    let accuracy_payloads = ref [] in
    let results, wall, _ =
      socket_loop r slots ~next:(stream ~seed ~universe ~lead) ~seconds ~accuracy_payloads
    in
    let rss = Proc.peak_rss_mb server.Proc.pid in
    log_counts results (stats r (List.hd slots).conn);
    close_clients server slots;
    let lat = List.map (fun a -> a.latency) results in
    let payload i = List.assoc i !accuracy_payloads in
    Report.set r "setup_s" (Quant.median setup);
    Report.set r "gates_per_s"
      (Quant.sum (List.map (fun a -> float_of_int a.q.gates) results) /. wall);
    Report.set r "latency_p50_ms" (1000.0 *. Quant.median lat);
    Report.set r "latency_p99_ms" (1000.0 *. Quant.percentile 99.0 lat);
    Report.set r "ops_per_s" (float_of_int (List.length results) /. wall);
    Report.set r "peak_rss_mb" rss;
    match
      Accuracy.of_payloads (List.init (List.length acc_designs) (fun i -> (payload (2 * i), payload ((2 * i) + 1))))
    with
    | err -> Report.set r "accuracy_err" err
    | exception Not_found -> Report.fail r "serve-mix: accuracy requests unanswered"
  end
  else begin
    (* In-process phase first, so nothing timing-dependent runs before
       the counter prefix: the same stream, one request at a time, odd
       ones traced. *)
    let inproc_share, socket_share = Settings.traced_shares ~workload:"serve-mix" in
    let tr = Span.create () in
    let t = Inproc.create tr in
    let next = stream ~seed ~universe ~lead in
    (* a compacted heap, so major collections fall at the same points
       on every run and their counter repeats exactly *)
    Gc.compact ();
    let prefix = Settings.counter_prefix ~workload:"serve-mix" size in
    let answers = Hashtbl.create 1024 in
    let start = now () in
    let one i q =
      Span.set_enabled tr (i mod 2 = 1);
      let h0 = Spsta_server.Cache.result_hits t.Inproc.cache
      and m0 = Spsta_server.Cache.result_misses t.Inproc.cache in
      let a = Inproc.handle t ~rid:i (line ~id:(Printf.sprintf "m%d" i) q) in
      Report.attempt r;
      (match a.Inproc.response with
      | Protocol.Ok { result; _ } -> check_payload r answers q (Json.to_string result)
      | Protocol.Error { message; _ } -> Report.fail r "serve-mix: %s" message);
      ( i, a.wall, String.length a.line, a.words, float_of_int a.majors,
        Spsta_server.Cache.result_hits t.Inproc.cache - h0,
        Spsta_server.Cache.result_misses t.Inproc.cache - m0 )
    in
    let rec go i acc =
      if i > prefix && now () -. start >= seconds *. inproc_share then List.rev acc
      else
        match next () with
        | Single q -> go (i + 1) (one i q :: acc)
        | Pair q ->
          let a = one i q in
          go (i + 2) (one (i + 1) q :: a :: acc)
    in
    let ops = go 1 [] in
    Span.set_enabled tr false;
    let head = List.filteri (fun i _ -> i < prefix) ops in
    let per_op f = Quant.mean (List.map f head) in
    let sum f = Quant.sum (List.map f head) in
    Report.set_median r "protocol.response_bytes"
      (List.map (fun (_, _, b, _, _, _, _) -> float_of_int b) ops);
    Report.set r "gc.alloc_words_per_op" (per_op (fun (_, _, _, w, _, _, _) -> w));
    Report.set r "gc.major_collections_per_op" (per_op (fun (_, _, _, _, m, _, _) -> m));
    Report.set r "cache.memo_hits" (sum (fun (_, _, _, _, _, h, _) -> float_of_int h));
    Report.set r "cache.memo_misses" (sum (fun (_, _, _, _, _, _, m) -> float_of_int m));
    let walls parity =
      List.filter_map (fun (i, w, _, _, _, _, _) -> if i mod 2 = parity then Some w else None) ops
    in
    Report.set r "trace.overhead_ratio" (Quant.median (walls 1) /. Quant.median (walls 0));
    Layers.set_span_medians r tr
      [ ("netlist.parse", "netlist.parse_s", 1.0); ("analysis.static", "analysis.static_s", 1.0);
        ("spsta.moments", "spsta.moments_s", 1.0); ("ssta.analyze", "ssta.analyze_s", 1.0);
        ("sim.mc", "sim.mc_s", 1.0); ("opt.sizer", "opt.sizer_s", 1.0);
        ("protocol.decode", "protocol.decode_us", 1e6); ("protocol.encode", "protocol.encode_us", 1e6) ];
    Layers.finish r tr ~root:"request" ~name:(Printf.sprintf "serve-mix-%d" seed);
    (* Socket phase: what only the real server shows. *)
    let server, slots, _ = open_clients ~trials:1 in
    let results, _, distinct =
      socket_loop r slots ~next:(stream ~seed ~universe ~lead)
        ~seconds:(seconds *. socket_share) ~accuracy_payloads:(ref [])
    in
    let c = stats r (List.hd slots).conn in
    log_counts results c;
    close_clients server slots;
    let elapsed seen = List.filter_map (fun a -> if a.seen = seen then Some a.elapsed_ms else None) results in
    Report.set_median r "server.execute_hit_ms" (elapsed true);
    Report.set_median r "server.execute_miss_ms" (elapsed false);
    Report.set_median r "transport.overhead_ms"
      (List.map (fun a -> (1000.0 *. a.latency) -. a.elapsed_ms) results);
    Report.set r "cache.memo_hit_ratio" (c.hits /. (c.hits +. c.misses));
    Report.set r "cache.memo_evictions" c.evictions;
    Report.set r "cache.circuit_hit_ratio" (c.chits /. (c.chits +. c.cmisses));
    Report.set r "cache.redundant_computes" (c.misses -. float_of_int distinct)
  end
