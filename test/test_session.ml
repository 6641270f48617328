(* Stateful session subsystem: registry lifecycle and error codes,
   streamed-mutation bit-identity against an independent from-scratch
   analysis, pinned payload bytes, pool affinity ordering and
   non-blocking admission, the persistent result store (recovery, dedup,
   compaction, torn lines), and the socket transport end to end —
   framing errors, per-connection pipelining and graceful shutdown over
   a real Unix-domain socket. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol
module Server = Spsta_server.Server
module Session = Spsta_server.Session
module Store = Spsta_server.Store
module Cache = Spsta_server.Cache
module Pool = Spsta_server.Pool
module Transport = Spsta_server.Transport
module Metrics = Spsta_server.Metrics
module Circuit = Spsta_netlist.Circuit
module Sized = Spsta_netlist.Sized_library
module Transform = Spsta_netlist.Transform
module Gate_kind = Spsta_logic.Gate_kind
module Normal = Spsta_dist.Normal
module Ssta = Spsta_ssta.Ssta
module Rng = Spsta_util.Rng

let json_num json key =
  match Json.member key json with
  | Some (Json.Num n) -> n
  | _ -> Alcotest.failf "no numeric field %s in %s" key (Json.to_string json)

let json_bool json key =
  match Json.member key json with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "no bool field %s in %s" key (Json.to_string json)

let json_str json key =
  match Json.member key json with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "no string field %s in %s" key (Json.to_string json)

let json_list json key =
  match Json.member key json with
  | Some (Json.List xs) -> xs
  | _ -> Alcotest.failf "no list field %s in %s" key (Json.to_string json)

let expect_error expected f =
  match f () with
  | exception Session.Error { code; _ } ->
    Alcotest.(check string) "error code" (Protocol.error_code_name expected)
      (Protocol.error_code_name code)
  | _ -> Alcotest.failf "expected %s error" (Protocol.error_code_name expected)

let open_params ?(sizes = 4) ?(ratio = 1.5) session circuit =
  { Protocol.session; circuit; sizes; ratio }

(* ---------- registry lifecycle ---------- *)

let test_registry_lifecycle () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry ~max_sessions:2 metrics in
  let cache = Cache.create () in
  let circuit = (Cache.load_circuit cache "s27").Cache.circuit in
  let gate = Circuit.net_name circuit (Circuit.topo_gates circuit).(0) in
  let source = Circuit.net_name circuit (List.hd (Circuit.sources circuit)) in
  let opened = Session.open_session reg cache (open_params "a" "s27") in
  Alcotest.(check bool) "gates reported" true (json_num opened "gates" > 0.0);
  Alcotest.(check bool) "full sweep timed" true (json_num opened "full_ms" >= 0.0);
  expect_error Protocol.Session_exists (fun () ->
      Session.open_session reg cache (open_params "a" "s27"));
  ignore (Session.open_session reg cache (open_params "b" "s27"));
  expect_error Protocol.Session_limit (fun () ->
      Session.open_session reg cache (open_params "c" "s27"));
  Alcotest.(check int) "gauge counts opens" 2 (Session.open_count reg);
  expect_error Protocol.Unknown_session (fun () ->
      Session.mutate reg "zzz" (Protocol.Resize { net = gate; size = 1 }));
  let m = Session.mutate reg "a" (Protocol.Resize { net = gate; size = 1 }) in
  Alcotest.(check bool) "resize applied" true (json_bool m "applied");
  Alcotest.(check bool) "dirty cone non-empty" true (json_num m "dirty_gates" > 0.0);
  let m2 = Session.mutate reg "a" (Protocol.Resize { net = gate; size = 1 }) in
  Alcotest.(check bool) "same size is a no-op" false (json_bool m2 "applied");
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Resize { net = gate; size = 99 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Resize { net = "no_such_net"; size = 1 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a"
        (Protocol.Set_input
           { net = gate; mu_rise = 0.0; sigma_rise = 1.0; mu_fall = 0.0; sigma_fall = 1.0 }));
  expect_error Protocol.Bad_field (fun () ->
      Session.mutate reg "a" (Protocol.Retype { net = source; gate = Gate_kind.Nand }));
  let v = Session.verify reg "a" in
  Alcotest.(check bool) "incremental state verifies" true (json_bool v "identical");
  let closed = Session.close reg "a" in
  Alcotest.(check string) "close names the session" "a" (json_str closed "session");
  expect_error Protocol.Unknown_session (fun () -> ignore (Session.close reg "a"));
  ignore (Session.open_session reg cache (open_params "c" "s27"));
  Alcotest.(check int) "slot freed by close" 2 (Session.open_count reg)

(* ---------- idle eviction ---------- *)

let test_idle_eviction () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry ~max_sessions:4 metrics in
  let cache = Cache.create () in
  ignore (Session.open_session reg cache (open_params "idle" "s27"));
  ignore (Session.open_session reg cache (open_params "busy" "s27"));
  (* a held inflight count pins the session regardless of its clock *)
  Session.retain reg "busy";
  let victims = Session.evict_idle reg ~idle_timeout_s:(-1.0) in
  Alcotest.(check (list string)) "only the idle session went" [ "idle" ] victims;
  Session.release reg "busy";
  let victims = Session.evict_idle reg ~idle_timeout_s:(-1.0) in
  Alcotest.(check (list string)) "released session is evictable" [ "busy" ] victims;
  Alcotest.(check int) "registry empty" 0 (Session.open_count reg)

(* ---------- streamed mutations vs from-scratch analysis ---------- *)

(* Mirror of one mutation in terms of net names, applied both to the
   live session and to an independent reference copy. *)
type op =
  | Op_resize of string * int
  | Op_retype of string * Gate_kind.t
  | Op_input of string * float * float

let flip_kind = function
  | Gate_kind.And -> Gate_kind.Nand
  | Gate_kind.Nand -> Gate_kind.And
  | Gate_kind.Or -> Gate_kind.Nor
  | Gate_kind.Nor -> Gate_kind.Or
  | Gate_kind.Xor -> Gate_kind.Xnor
  | Gate_kind.Xnor -> Gate_kind.Xor
  | Gate_kind.Not -> Gate_kind.Buf
  | Gate_kind.Buf -> Gate_kind.Not

let test_stream_bit_identity () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry metrics in
  let cache = Cache.create () in
  let name = "s344" in
  let circuit = (Cache.load_circuit cache name).Cache.circuit in
  let gates = Circuit.topo_gates circuit in
  let sources = Array.of_list (Circuit.sources circuit) in
  ignore (Session.open_session reg cache (open_params "eco" name));
  (* generate a deterministic 100-op stream over net names *)
  let rng = Rng.create ~seed:42 in
  let cur_size = Hashtbl.create 64 in
  let cur_kind = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      match Circuit.driver circuit g with
      | Circuit.Gate { kind; _ } -> Hashtbl.replace cur_kind (Circuit.net_name circuit g) kind
      | Circuit.Input | Circuit.Dff_output _ -> ())
    gates;
  let ops =
    List.init 100 (fun i ->
        if i mod 13 = 5 then begin
          let s = Circuit.net_name circuit sources.(Rng.int rng (Array.length sources)) in
          Op_input (s, Rng.gaussian rng ~mu:0.0 ~sigma:0.5, 0.5 +. Rng.float rng)
        end
        else if i mod 7 = 3 then begin
          let g = Circuit.net_name circuit gates.(Rng.int rng (Array.length gates)) in
          let kind = flip_kind (Hashtbl.find cur_kind g) in
          Hashtbl.replace cur_kind g kind;
          Op_retype (g, kind)
        end
        else begin
          let g = Circuit.net_name circuit gates.(Rng.int rng (Array.length gates)) in
          let before = Option.value ~default:0 (Hashtbl.find_opt cur_size g) in
          let size = (before + 1 + Rng.int rng 3) mod 4 in
          Hashtbl.replace cur_size g size;
          Op_resize (g, size)
        end)
  in
  (* independent reference: a private copy mutated directly *)
  let ref_circuit = Circuit.copy circuit in
  let sized = Sized.family ~sizes:4 ~ratio:1.5 Spsta_netlist.Cell_library.default in
  let asg = Sized.initial ref_circuit in
  let overrides = Hashtbl.create 8 in
  let applied = ref 0 in
  List.iter
    (fun op ->
      let mutation, reference =
        match op with
        | Op_resize (net, size) ->
          ( Protocol.Resize { net; size },
            fun () ->
              ignore (Transform.resize_gate sized ref_circuit asg
                        (Circuit.find_exn ref_circuit net) ~size) )
        | Op_retype (net, kind) ->
          ( Protocol.Retype { net; gate = kind },
            fun () ->
              ignore (Transform.retype_gate ref_circuit (Circuit.find_exn ref_circuit net) ~kind)
          )
        | Op_input (net, mu, sigma) ->
          ( Protocol.Set_input
              { net; mu_rise = mu; sigma_rise = sigma; mu_fall = -.mu; sigma_fall = sigma },
            fun () ->
              Hashtbl.replace overrides
                (Circuit.find_exn ref_circuit net)
                { Ssta.rise = Normal.make ~mu ~sigma;
                  fall = Normal.make ~mu:(-.mu) ~sigma } )
      in
      let payload = Session.mutate reg "eco" mutation in
      if json_bool payload "applied" then incr applied;
      reference ())
    ops;
  Alcotest.(check bool) "mutations drove incremental analyses" true
    (Metrics.sessions_incremental metrics > 50);
  Alcotest.(check int) "all 100 mutations counted" 100 (Metrics.sessions_mutations metrics);
  (* the session's claim about itself *)
  let v = Session.verify reg "eco" in
  Alcotest.(check bool) "session state = from-scratch sweep" true (json_bool v "identical");
  Alcotest.(check int) "every net compared"
    (Circuit.num_nets circuit)
    (int_of_float (json_num v "nets_compared"));
  (* and the independent reference agrees endpoint by endpoint, bit for
     bit *)
  let input_arrival_of id =
    match Hashtbl.find_opt overrides id with
    | Some a -> a
    | None -> { Ssta.rise = Normal.standard; fall = Normal.standard }
  in
  let expected =
    Ssta.analyze ~delay_rf:(Sized.delay_rf sized ref_circuit asg) ~input_arrival_of
      ref_circuit
  in
  let bits = Int64.bits_of_float in
  let q = Session.query reg "eco" ~top:0 in
  let endpoints = json_list q "endpoints" in
  Alcotest.(check int) "all endpoints reported"
    (List.length (Circuit.endpoints ref_circuit))
    (List.length endpoints);
  List.iter
    (fun e ->
      let net = json_str e "net" in
      let a = Ssta.arrival expected (Circuit.find_exn ref_circuit net) in
      List.iter
        (fun (key, value) ->
          Alcotest.(check int64) (net ^ " " ^ key) (bits value) (bits (json_num e key)))
        [ ("mu_rise", Normal.mean a.Ssta.rise); ("sigma_rise", Normal.stddev a.Ssta.rise);
          ("mu_fall", Normal.mean a.Ssta.fall); ("sigma_fall", Normal.stddev a.Ssta.fall) ])
    endpoints;
  ignore (Session.close reg "eco")

(* The session refines one flat result in place; its oracle is the
   record engine run from scratch on the session's own mutated circuit,
   assignment and arrival overrides — compared bit for bit on every net,
   not only the endpoints [query] reports. *)
let test_session_record_oracle () =
  let metrics = Metrics.create () in
  let reg = Session.create_registry metrics in
  let cache = Cache.create () in
  ignore (Session.open_session reg cache (open_params "oracle" "s1196"));
  let s = Session.find_session reg "oracle" in
  let circuit = s.Session.circuit in
  let gates = Circuit.topo_gates circuit in
  let sources = Array.of_list (Circuit.sources circuit) in
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 150 do
    let mutation =
      match Rng.int rng 4 with
      | 0 ->
        let id = sources.(Rng.int rng (Array.length sources)) in
        Protocol.Set_input
          { net = Circuit.net_name circuit id; mu_rise = Rng.gaussian rng ~mu:0.0 ~sigma:1.0;
            sigma_rise = 0.2 +. Rng.float rng; mu_fall = Rng.gaussian rng ~mu:0.0 ~sigma:1.0;
            sigma_fall = 0.2 +. Rng.float rng }
      | 1 ->
        let g = gates.(Rng.int rng (Array.length gates)) in
        let gate =
          match Circuit.driver circuit g with
          | Circuit.Gate { kind; _ } -> flip_kind kind
          | Circuit.Input | Circuit.Dff_output _ -> assert false
        in
        Protocol.Retype { net = Circuit.net_name circuit g; gate }
      | _ ->
        let g = gates.(Rng.int rng (Array.length gates)) in
        Protocol.Resize { net = Circuit.net_name circuit g; size = Rng.int rng 4 }
    in
    ignore (Session.mutate reg "oracle" mutation)
  done;
  let oracle =
    Ssta.analyze_rf ~engine:`Record ~delay_rf:(Session.delay_rf s)
      ~input_arrival_of:(Session.arrival_of s) circuit
  in
  let bits = Int64.bits_of_float in
  for id = 0 to Circuit.num_nets circuit - 1 do
    let a = Ssta.arrival oracle id and b = Ssta.arrival s.Session.result id in
    List.iter
      (fun (what, x, y) ->
        Alcotest.(check int64) (Circuit.net_name circuit id ^ " " ^ what) (bits x) (bits y))
      [ ("mu_rise", Normal.mean a.Ssta.rise, Normal.mean b.Ssta.rise);
        ("sigma_rise", Normal.stddev a.Ssta.rise, Normal.stddev b.Ssta.rise);
        ("mu_fall", Normal.mean a.Ssta.fall, Normal.mean b.Ssta.fall);
        ("sigma_fall", Normal.stddev a.Ssta.fall, Normal.stddev b.Ssta.fall) ]
  done;
  ignore (Session.close reg "oracle")

(* ---------- payload bytes ---------- *)

(* Every session payload on s27 and s344 — open, query at top 0 and 5, a
   fixed resize/retype/set_input script with a query after each, verify
   and close — is pinned against test/golden/session_payloads.tsv (one
   "label<TAB>json" line per step), so a change to how a session holds
   its circuit cannot move its answers.  The wall-clock fields are
   dropped; every other float prints round-trip. *)
let wall_clock = [ "full_ms"; "update_ms"; "mean_incremental_ms"; "speedup"; "uptime_s" ]

let without_wall_clock = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> not (List.mem k wall_clock)) fields)
  | json -> json

let session_payload_rows () =
  let reg = Session.create_registry (Metrics.create ()) in
  let cache = Cache.create () in
  let rows = ref [] in
  let row label json = rows := (label, Json.to_string (without_wall_clock json)) :: !rows in
  List.iter
    (fun name ->
      let circuit = (Cache.load_circuit cache name).Cache.circuit in
      let gates = Circuit.topo_gates circuit in
      let gate k = gates.(k * (Array.length gates - 1) / 3) in
      let flipped k =
        match Circuit.driver circuit (gate k) with
        | Circuit.Gate { kind; _ } -> flip_kind kind
        | Circuit.Input | Circuit.Dff_output _ -> assert false
      in
      let net k = Circuit.net_name circuit (gate k) in
      let source = Circuit.net_name circuit (List.hd (Circuit.sources circuit)) in
      let script =
        [ Protocol.Resize { net = net 0; size = 2 };
          Protocol.Retype { net = net 1; gate = flipped 1 };
          Protocol.Set_input
            { net = source; mu_rise = 0.75; sigma_rise = 0.5; mu_fall = -0.25; sigma_fall = 1.25 };
          Protocol.Resize { net = net 3; size = 3 };
          Protocol.Retype { net = net 2; gate = flipped 2 };
          Protocol.Resize { net = net 0; size = 0 } ]
      in
      let session = "pin-" ^ name in
      row (name ^ " open") (Session.open_session reg cache (open_params session name));
      row (name ^ " query top=0") (Session.query reg session ~top:0);
      row (name ^ " query top=5") (Session.query reg session ~top:5);
      List.iter
        (fun m ->
          let label =
            Printf.sprintf "%s %s %s" name (Protocol.mutation_op m) (Protocol.mutation_net m)
          in
          row label (Session.mutate reg session m);
          row (label ^ " query") (Session.query reg session ~top:0))
        script;
      row (name ^ " verify") (Session.verify reg session);
      row (name ^ " close") (Session.close reg session))
    [ "s27"; "s344" ];
  List.rev !rows

let test_session_payloads_pinned () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "golden/session_payloads.tsv"
  in
  let expected =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let tab = String.index l '\t' in
           (String.sub l 0 tab, String.sub l (tab + 1) (String.length l - tab - 1)))
  in
  let actual = session_payload_rows () in
  Alcotest.(check (list string)) "labels" (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (label, bytes) (_, payload) -> Alcotest.(check string) label bytes payload)
    expected actual

(* ---------- pool: affinity ordering and non-blocking admission ---------- *)

let test_pool_affinity_order () =
  let pool = Pool.create ~queue_capacity:64 ~workers:4 () in
  let log = ref [] in
  let log_mutex = Mutex.create () in
  let record i =
    Mutex.lock log_mutex;
    log := i :: !log;
    Mutex.unlock log_mutex
  in
  let tickets =
    List.init 40 (fun i ->
        let affinity = if i mod 2 = 0 then Some "a" else Some "b" in
        Pool.submit ?affinity pool (fun () ->
            record i;
            i))
  in
  List.iter (fun t -> ignore (Pool.await t)) tickets;
  Pool.shutdown pool;
  let seen = List.rev !log in
  let stream key = List.filter (fun i -> i mod 2 = key) seen in
  Alcotest.(check (list int)) "key a executes in submission order"
    (List.init 20 (fun i -> 2 * i))
    (stream 0);
  Alcotest.(check (list int)) "key b executes in submission order"
    (List.init 20 (fun i -> (2 * i) + 1))
    (stream 1)

let test_pool_try_submit_rejects () =
  let pool = Pool.create ~queue_capacity:2 ~workers:1 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let blocker () =
    Atomic.set started true;
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    0
  in
  let t1 = Pool.submit pool blocker in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* worker is busy; fill the runnable queue *)
  let t2 = Pool.submit pool (fun () -> 1) in
  let t3 = Pool.submit pool (fun () -> 2) in
  ( match Pool.try_submit pool (fun () -> 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "try_submit must refuse a full queue" );
  Atomic.set gate true;
  List.iter (fun t -> ignore (Pool.await t)) [ t1; t2; t3 ];
  Pool.shutdown pool

let test_pool_affinity_chain_bound () =
  let pool = Pool.create ~queue_capacity:2 ~workers:1 () in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let t1 =
    Pool.submit ~affinity:"s" pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        0)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* park two successors behind the running keyed job: chain at capacity *)
  let t2 = Option.get (Pool.try_submit ~affinity:"s" pool (fun () -> 1)) in
  let t3 = Option.get (Pool.try_submit ~affinity:"s" pool (fun () -> 2)) in
  ( match Pool.try_submit ~affinity:"s" pool (fun () -> 3) with
  | None -> ()
  | Some _ -> Alcotest.fail "try_submit must refuse a full affinity chain" );
  (* the runnable queue itself is empty, so unkeyed work is admitted *)
  let t4 =
    match Pool.try_submit pool (fun () -> 4) with
    | Some t -> t
    | None -> Alcotest.fail "unkeyed admission must not be blocked by a parked chain"
  in
  Atomic.set gate true;
  List.iter (fun t -> ignore (Pool.await t)) [ t1; t2; t3; t4 ];
  Pool.shutdown pool

(* ---------- persistent store ---------- *)

let temp_store_path () =
  let path = Filename.temp_file "spsta_store" ".jsonl" in
  Sys.remove path;
  path

let test_store_persistence () =
  let path = temp_store_path () in
  let s = Store.open_ ~fsync:false path in
  Store.add s "k1" (Json.Obj [ ("a", Json.int 1) ]);
  Store.add s "k2" (Json.Str "v2");
  Store.add s "k1" (Json.Str "superseded");
  Alcotest.(check int) "re-store of a known key is not appended" 2 (Store.appends s);
  Store.close s;
  let s2 = Store.open_ ~fsync:false path in
  Alcotest.(check int) "records recovered" 2 (Store.loaded s2);
  ( match Store.find s2 "k1" with
  | Some (Json.Obj [ ("a", Json.Num 1.0) ]) -> ()
  | other ->
    Alcotest.failf "wrong recovered value: %s"
      (match other with Some j -> Json.to_string j | None -> "None") );
  Alcotest.(check bool) "miss counted" true (Store.find s2 "nope" = None);
  Alcotest.(check int) "hits" 1 (Store.hits s2);
  Alcotest.(check int) "misses" 1 (Store.misses s2);
  Store.close s2;
  Sys.remove path

let test_store_compaction_and_torn_lines () =
  let path = temp_store_path () in
  let oc = open_out path in
  (* five keys, five versions each: 20 superseded records force a
     compaction at open; plus one garbage line and one torn append *)
  for version = 1 to 5 do
    for k = 1 to 5 do
      Printf.fprintf oc "{\"k\":\"key%d\",\"v\":%d}\n" k (10 * version)
    done
  done;
  output_string oc "not json at all\n";
  output_string oc "{\"k\":\"torn";
  close_out oc;
  let s = Store.open_ ~fsync:false path in
  Alcotest.(check int) "live records" 5 (Store.length s);
  ( match Store.find s "key3" with
  | Some (Json.Num 50.0) -> ()
  | _ -> Alcotest.fail "latest version must win" );
  Store.close s;
  let lines = ref 0 in
  let ic = open_in path in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Alcotest.(check int) "compaction rewrote only live records" 5 !lines;
  Sys.remove path

let test_cache_store_roundtrip () =
  let path = temp_store_path () in
  let key = "ssta|deadbeef|top=0" in
  let payload = Json.Obj [ ("endpoints", Json.List [ Json.int 1 ]) ] in
  let store1 = Store.open_ ~fsync:false path in
  let cache1 = Cache.create ~store:store1 () in
  Cache.store_result cache1 key payload;
  Store.close store1;
  (* a second instance on the same path sees the memoised payload *)
  let store2 = Store.open_ ~fsync:false path in
  let cache2 = Cache.create ~store:store2 () in
  ( match Cache.find_result cache2 key with
  | Some p -> Alcotest.(check string) "payload bytes" (Json.to_string payload) (Json.to_string p)
  | None -> Alcotest.fail "store-backed memo missed after restart" );
  Alcotest.(check int) "store hit counted" 1 (Store.hits store2);
  (* promoted into the LRU: the next lookup never reaches the store *)
  ignore (Cache.find_result cache2 key);
  Alcotest.(check int) "second lookup served by LRU" 1 (Store.hits store2);
  Store.close store2;
  Sys.remove path

(* ---------- socket transport ---------- *)

let socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spsta_test_%d.sock" (Unix.getpid ()))

let wait_for_socket path =
  let rec go n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 100

let rpc ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let ok_result line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Ok { result; _ }) -> result
  | Ok (Protocol.Error { code; message; _ }) ->
    Alcotest.failf "unexpected error %s: %s" (Protocol.error_code_name code) message
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

let error_code line =
  match Protocol.response_of_line line with
  | Ok (Protocol.Error { code; _ }) -> Protocol.error_code_name code
  | Ok (Protocol.Ok _) -> Alcotest.failf "expected an error, got ok: %s" line
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

let test_socket_transport () =
  let path = socket_path () in
  if Sys.file_exists path then Sys.remove path;
  let config =
    { Server.default_config with
      Server.workers = 2; max_frame_bytes = 4096; max_inflight = 8 }
  in
  let server =
    Domain.spawn (fun () ->
        ignore (Transport.run ~config ~signals:false (Transport.Unix_socket path)))
  in
  wait_for_socket path;
  let ic, oc = Unix.open_connection (Unix.ADDR_UNIX path) in
  (* full session lifecycle over the wire *)
  let opened =
    ok_result
      (rpc ic oc "{\"id\":\"o\",\"kind\":\"open\",\"session\":\"w\",\"circuit\":\"s27\"}")
  in
  Alcotest.(check string) "session echoed" "w" (json_str opened "session");
  let q =
    ok_result (rpc ic oc "{\"id\":\"q0\",\"kind\":\"query\",\"session\":\"w\",\"top\":1}")
  in
  Alcotest.(check int) "top=1 returns one endpoint" 1 (List.length (json_list q "endpoints"));
  let source =
    (* a real input net of s27, looked up out of band *)
    let c = (Cache.load_circuit (Cache.create ()) "s27").Cache.circuit in
    Circuit.net_name c (List.hd (Circuit.sources c))
  in
  let m =
    ok_result
      (rpc ic oc
         (Printf.sprintf
            "{\"id\":\"m\",\"kind\":\"mutate\",\"session\":\"w\",\"op\":\"set_input\",\"net\":%s,\"mu_rise\":0.5}"
            (Json.to_string (Json.string source))))
  in
  Alcotest.(check bool) "mutation applied over the wire" true (json_bool m "applied");
  let v = ok_result (rpc ic oc "{\"id\":\"v\",\"kind\":\"verify\",\"session\":\"w\"}") in
  Alcotest.(check bool) "verify over the wire" true (json_bool v "identical");
  (* invalid UTF-8 answers a structured error and keeps the connection *)
  Alcotest.(check string) "invalid utf8 code" "invalid_utf8" (error_code (rpc ic oc "\xff\xfe{"));
  let stats = ok_result (rpc ic oc "{\"id\":\"s\",\"kind\":\"stats\"}") in
  ( match Json.member "sessions" stats with
  | Some sessions ->
    Alcotest.(check (float 0.0)) "one open session" 1.0 (json_num sessions "open")
  | None -> Alcotest.fail "stats must report session gauges" );
  (* an oversized frame answers a structured error, then closes *)
  let ic2, oc2 = Unix.open_connection (Unix.ADDR_UNIX path) in
  let big = String.concat "" [ "{\"id\":\""; String.make 5000 'x'; "\"}" ] in
  Alcotest.(check string) "frame too large code" "frame_too_large" (error_code (rpc ic2 oc2 big));
  ( match input_line ic2 with
  | exception End_of_file -> ()
  | line -> Alcotest.failf "connection must close after frame_too_large, got %s" line );
  (try Unix.shutdown_connection ic2 with _ -> ());
  (* graceful shutdown: request is acknowledged after the drain *)
  let ack = ok_result (rpc ic oc "{\"id\":\"bye\",\"kind\":\"shutdown\"}") in
  ( match Json.member "drained" ack with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "shutdown ack must confirm the drain" );
  Domain.join server;
  (try Unix.shutdown_connection ic with _ -> ());
  Alcotest.(check bool) "socket file removed on shutdown" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "registry lifecycle" `Quick test_registry_lifecycle;
    Alcotest.test_case "idle eviction" `Quick test_idle_eviction;
    Alcotest.test_case "streamed mutations = from-scratch analysis" `Quick
      test_stream_bit_identity;
    Alcotest.test_case "session state = record-engine oracle" `Quick
      test_session_record_oracle;
    Alcotest.test_case "session payloads pinned" `Quick test_session_payloads_pinned;
    Alcotest.test_case "pool affinity ordering" `Quick test_pool_affinity_order;
    Alcotest.test_case "pool try_submit rejects when full" `Quick test_pool_try_submit_rejects;
    Alcotest.test_case "pool bounds affinity chains" `Quick test_pool_affinity_chain_bound;
    Alcotest.test_case "store persists across restart" `Quick test_store_persistence;
    Alcotest.test_case "store compacts and skips torn lines" `Quick
      test_store_compaction_and_torn_lines;
    Alcotest.test_case "cache serves warm hits from the store" `Quick test_cache_store_roundtrip;
    Alcotest.test_case "socket transport end to end" `Quick test_socket_transport;
  ]
