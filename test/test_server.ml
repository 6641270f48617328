(* Server subsystem: LRU cache semantics, worker-pool behaviour (results,
   deadlines, drain), and end-to-end batches — duplicate requests hit the
   memo table with identical responses, and responses are deterministic and
   independent of the worker-pool size. *)

module Json = Spsta_server.Json
module Protocol = Spsta_server.Protocol
module Cache = Spsta_server.Cache
module Pool = Spsta_server.Pool
module Server = Spsta_server.Server

(* ---------- LRU ---------- *)

let test_lru_eviction () =
  let lru = Cache.Lru.create ~capacity:2 in
  Cache.Lru.add lru "a" 1;
  Cache.Lru.add lru "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Cache.Lru.find lru "a");
  (* b is now least recently used; adding c evicts it *)
  Cache.Lru.add lru "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.Lru.find lru "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.Lru.find lru "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Cache.Lru.find lru "c");
  Alcotest.(check int) "evictions" 1 (Cache.Lru.evictions lru);
  Alcotest.(check int) "hits" 3 (Cache.Lru.hits lru);
  Alcotest.(check int) "misses" 1 (Cache.Lru.misses lru);
  Alcotest.(check int) "size" 2 (Cache.Lru.length lru)

let test_lru_replace () =
  let lru = Cache.Lru.create ~capacity:2 in
  Cache.Lru.add lru "a" 1;
  Cache.Lru.add lru "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Cache.Lru.find lru "a");
  Alcotest.(check int) "no eviction on replace" 0 (Cache.Lru.evictions lru)

let test_cache_load_errors () =
  let cache = Cache.create () in
  ( match Cache.load_circuit cache "no_such_circuit_xyz" with
  | exception Cache.Load_error { code; _ } ->
    Alcotest.(check string) "not found code" "circuit_not_found"
      (Protocol.error_code_name code)
  | _ -> Alcotest.fail "expected Load_error" );
  let path = Filename.temp_file "spsta_bad" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(G1)\nG2 = FROB(G1)\n";
  close_out oc;
  ( match Cache.load_circuit cache path with
  | exception Cache.Load_error { code; _ } ->
    Alcotest.(check string) "parse error code" "parse_error" (Protocol.error_code_name code)
  | _ -> Alcotest.fail "expected Load_error" );
  Sys.remove path

let test_cache_digest_stable () =
  let cache = Cache.create () in
  let a = Cache.load_circuit cache "s27" in
  let b = Cache.load_circuit cache "s27" in
  Alcotest.(check string) "same digest" a.Cache.digest b.Cache.digest;
  Alcotest.(check bool) "second load is a hit" true (Cache.circuit_hits cache > 0)

(* Four domains asking for one memo key at once: one computes, the
   others wait for it and then hit the memo.  A compute that raises
   releases the key, so the next caller computes it afresh. *)
let test_memo_single_flight () =
  let cache = Cache.create () in
  let computes = Atomic.make 0 in
  let arrived = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Unix.sleepf 0.05;
    Json.int 42
  in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < 4 do
              Domain.cpu_relax ()
            done;
            Cache.find_or_compute cache "k" compute))
  in
  let payloads = List.map Domain.join domains in
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  List.iter
    (fun p -> Alcotest.(check (option int)) "payload" (Some 42) (Json.to_int_opt p))
    payloads;
  Alcotest.(check int) "one miss" 1 (Cache.result_misses cache);
  Alcotest.(check int) "three hits" 3 (Cache.result_hits cache);
  ( match Cache.find_or_compute cache "bad" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the compute's exception" );
  Alcotest.(check (option int)) "released after a raise" (Some 7)
    (Json.to_int_opt (Cache.find_or_compute cache "bad" (fun () -> Json.int 7)))

(* ---------- pool ---------- *)

let test_pool_results () =
  let pool = Pool.create ~workers:4 ~queue_capacity:8 () in
  let tickets = List.init 32 (fun i -> Pool.submit pool (fun () -> i * i)) in
  List.iteri
    (fun i ticket ->
      match Pool.await ticket with
      | Pool.Done v -> Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) v
      | _ -> Alcotest.fail "job did not complete")
    tickets;
  Pool.shutdown pool;
  Alcotest.(check int) "all executed" 32 (Pool.executed pool)

let test_pool_exception () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  let ticket = Pool.submit pool (fun () -> failwith "boom") in
  ( match Pool.await ticket with
  | Pool.Failed (Failure m) -> Alcotest.(check string) "exn carried" "boom" m
  | _ -> Alcotest.fail "expected Failed" );
  Pool.shutdown pool

let test_pool_deadline () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  (* occupy the single worker so the deadlined job expires while queued *)
  let blocker = Pool.submit pool (fun () -> Unix.sleepf 0.05; 0) in
  let doomed = Pool.submit ~deadline_ms:1.0 pool (fun () -> 1) in
  ( match Pool.await doomed with
  | Pool.Timed_out { budget_ms; elapsed_ms } ->
    Alcotest.(check (float 1e-2)) "budget" 1.0 budget_ms;
    Alcotest.(check bool) "elapsed past budget" true (elapsed_ms >= 1.0)
  | _ -> Alcotest.fail "expected Timed_out" );
  ( match Pool.await blocker with
  | Pool.Done 0 -> ()
  | _ -> Alcotest.fail "blocker should finish normally" );
  Alcotest.(check int) "timeout counted" 1 (Pool.timed_out pool);
  Pool.shutdown pool

let test_pool_drain () =
  let pool = Pool.create ~workers:2 ~queue_capacity:16 () in
  let counter = Atomic.make 0 in
  let tickets =
    List.init 10 (fun _ -> Pool.submit pool (fun () -> Atomic.incr counter; ()))
  in
  (* shutdown must finish every accepted job before returning *)
  Pool.shutdown pool;
  Alcotest.(check int) "drained" 10 (Atomic.get counter);
  List.iter
    (fun t -> match Pool.await t with Pool.Done () -> () | _ -> Alcotest.fail "lost job")
    tickets

(* regression: on_complete exceptions were all silently swallowed.
   Non-fatal ones are now counted; the waiter still gets its outcome. *)
let test_pool_callback_errors () =
  let pool = Pool.create ~workers:2 ~queue_capacity:8 () in
  let tickets =
    List.init 6 (fun i ->
        Pool.submit ~on_complete:(fun _ -> if i mod 2 = 0 then failwith "callback boom") pool
          (fun () -> i))
  in
  List.iteri
    (fun i t ->
      match Pool.await t with
      | Pool.Done v -> Alcotest.(check int) "result delivered despite callback" i v
      | _ -> Alcotest.fail "job did not complete")
    tickets;
  Pool.shutdown pool;
  Alcotest.(check int) "raising callbacks counted" 3 (Pool.callback_errors pool)

(* regression: executed/timed_out were plain mutable ints read without
   synchronisation from other domains.  Hammer the counters from reader
   domains while the pool is under load; with Atomic counters the final
   tallies are exact and every interim read is a valid monotone value. *)
let test_pool_stats_hammer () =
  let pool = Pool.create ~workers:4 ~queue_capacity:16 () in
  let stop = Atomic.make false in
  let monotone = Atomic.make true in
  let readers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let last = ref 0 in
            while not (Atomic.get stop) do
              let e = Pool.executed pool in
              if e < !last then Atomic.set monotone false;
              last := e;
              ignore (Pool.timed_out pool);
              ignore (Pool.callback_errors pool)
            done))
  in
  let tickets = List.init 200 (fun i -> Pool.submit pool (fun () -> i)) in
  List.iter (fun t -> ignore (Pool.await t)) tickets;
  Pool.shutdown pool;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check bool) "executed counter monotone under races" true (Atomic.get monotone);
  Alcotest.(check int) "no increment lost" 200 (Pool.executed pool)

(* same race on the LRU hit/miss/eviction counters: read them from a
   second domain while the table is being exercised *)
let test_lru_stats_hammer () =
  let lru = Cache.Lru.create ~capacity:8 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Cache.Lru.hits lru);
          ignore (Cache.Lru.misses lru);
          ignore (Cache.Lru.evictions lru)
        done)
  in
  let writers =
    Array.init 2 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to 499 do
              (* working set fits the capacity, so after the first round
                 every find hits — misses and hits are both exercised
                 whatever the domain interleaving *)
              let key = Printf.sprintf "k%d" (i mod 4) in
              ( match Cache.Lru.find lru key with
              | Some _ -> ()
              | None -> Cache.Lru.add lru key (w + i) )
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join reader;
  let hits = Cache.Lru.hits lru and misses = Cache.Lru.misses lru in
  Alcotest.(check int) "every find tallied exactly once" 1000 (hits + misses);
  Alcotest.(check bool) "both outcomes exercised" true (hits > 0 && misses > 0)

(* ---------- end-to-end batches ---------- *)

let config ~workers =
  { Server.default_config with Server.workers; queue_capacity = 8 }

let line ?(extra = "") ~id ~kind ~circuit () =
  Printf.sprintf "{\"id\":%S,\"kind\":%S,\"circuit\":%S%s}" id kind circuit extra

let fingerprint response =
  (* everything except elapsed_ms, which legitimately varies run to run *)
  match Protocol.response_of_line (Protocol.response_to_line response) with
  | Ok (Protocol.Ok { id; kind; result; _ }) ->
    Printf.sprintf "%s|%s|ok|%s" id kind (Json.to_string result)
  | Ok (Protocol.Error { id; code; message }) ->
    Printf.sprintf "%s|%s|%s"
      (Option.value id ~default:"-")
      (Protocol.error_code_name code) message
  | Error e -> Alcotest.failf "unparseable response: %s" e.Protocol.message

(* a fingerprint without its leading request id, for comparing duplicates *)
let payload_of fp =
  match String.index_opt fp '|' with
  | Some i -> String.sub fp (i + 1) (String.length fp - i - 1)
  | None -> fp

let test_batch_memo_hits () =
  let lines =
    [ line ~id:"a1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a2" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a3" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"m1" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":300,\"seed\":5" ();
      line ~id:"m2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":300,\"seed\":5" () ]
  in
  (* one worker serialises the duplicates, so later ones must hit the memo *)
  let t, responses = Server.run_batch ~config:(config ~workers:1) lines in
  Alcotest.(check int) "five responses" 5 (List.length responses);
  List.iter
    (fun r -> Alcotest.(check bool) "all ok" true (Protocol.is_ok r))
    responses;
  Alcotest.(check bool) "memo hits recorded" true (Cache.result_hits (Server.cache t) > 0);
  let fp = List.map (fun r -> payload_of (fingerprint r)) responses in
  Alcotest.(check string) "duplicate analyze identical" (List.nth fp 0) (List.nth fp 1);
  Alcotest.(check string) "duplicate analyze identical" (List.nth fp 0) (List.nth fp 2);
  Alcotest.(check string) "duplicate mc identical" (List.nth fp 3) (List.nth fp 4)

let test_batch_deterministic_across_pool_sizes () =
  let lines =
    [ line ~id:"r1" ~kind:"analyze" ~circuit:"s27" ~extra:",\"case\":\"II\"" ();
      line ~id:"r2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":500,\"seed\":11" ();
      line ~id:"r3" ~kind:"ssta" ~circuit:"c17" ();
      line ~id:"r4" ~kind:"paths" ~circuit:"c17" ~extra:",\"k\":4" ();
      line ~id:"r5" ~kind:"mc" ~circuit:"c17" ~extra:",\"runs\":500,\"seed\":11" () ]
  in
  let run workers =
    let _, responses = Server.run_batch ~config:(config ~workers) lines in
    List.map fingerprint responses
  in
  let serial = run 1 in
  let parallel = run 4 in
  List.iter2
    (fun a b -> Alcotest.(check string) "same response regardless of pool size" a b)
    serial parallel

let test_batch_identical_across_domains () =
  (* memo keys deliberately carry no domains component: the engine's
     parallel traversal is bit-identical, so the same request must yield
     byte-identical payloads at every analysis_domains setting *)
  let lines =
    [ line ~id:"d1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"d2" ~kind:"analyze" ~circuit:"s386" ~extra:",\"case\":\"II\",\"top\":4" ();
      line ~id:"d3" ~kind:"ssta" ~circuit:"s344" ();
      line ~id:"d4" ~kind:"ssta" ~circuit:"c17" ~extra:",\"top\":2" () ]
  in
  let run domains =
    let config = { (config ~workers:2) with Server.analysis_domains = domains } in
    let _, responses = Server.run_batch ~config lines in
    List.map fingerprint responses
  in
  let serial = run 1 in
  List.iter
    (fun domains ->
      List.iter2
        (fun a b -> Alcotest.(check string) "same payload at every domain count" a b)
        serial (run domains))
    [ 2; 4 ]

let test_batch_error_isolation () =
  let lines =
    [ line ~id:"ok1" ~kind:"analyze" ~circuit:"s27" ();
      "{\"id\":\"bad1\",\"kind\":\"frobnicate\"}";
      "no json here";
      line ~id:"bad2" ~kind:"analyze" ~circuit:"no_such_circuit_xyz" ();
      line ~id:"slow" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":5000,\"deadline_ms\":0.001"
        ();
      line ~id:"ok2" ~kind:"mc" ~circuit:"s27" ~extra:",\"runs\":200" ();
      "{\"id\":\"st\",\"kind\":\"stats\"}" ]
  in
  let _, responses = Server.run_batch ~config:(config ~workers:2) lines in
  let codes =
    List.map
      (fun r ->
        match r with
        | Protocol.Ok { kind; _ } -> "ok:" ^ kind
        | Protocol.Error { code; _ } -> Protocol.error_code_name code)
      responses
  in
  Alcotest.(check (list string)) "per-request outcomes"
    [ "ok:analyze"; "unknown_kind"; "bad_json"; "circuit_not_found"; "timeout"; "ok:mc";
      "ok:stats" ]
    codes

let test_batch_stats_sees_traffic () =
  let lines =
    [ line ~id:"a1" ~kind:"analyze" ~circuit:"s27" ();
      line ~id:"a2" ~kind:"analyze" ~circuit:"s27" ();
      "{\"id\":\"st\",\"kind\":\"stats\"}" ]
  in
  let _, responses = Server.run_batch ~config:(config ~workers:2) lines in
  match List.rev responses with
  | Protocol.Ok { kind = "stats"; result; _ } :: _ ->
    let hits =
      Option.bind (Json.member "cache" result) (Json.member "results")
      |> Fun.flip Option.bind (Json.member "hits")
      |> Fun.flip Option.bind Json.to_int_opt
    in
    Alcotest.(check bool) "stats reports memo hits" true (Option.get hits > 0);
    let analyze_ok =
      Option.bind (Json.member "metrics" result) (Json.member "requests")
      |> Fun.flip Option.bind (Json.member "analyze")
      |> Fun.flip Option.bind (Json.member "ok")
      |> Fun.flip Option.bind Json.to_int_opt
    in
    Alcotest.(check (option int)) "metrics counted analyzes" (Some 2) analyze_ok
  | _ -> Alcotest.fail "last response is not stats"

(* ---------- payload bytes ---------- *)

(* The per-kind payload builders are shared with the CLI; their encoded
   bytes are pinned against test/golden/payloads.tsv (one
   "label<TAB>json" line per case) so a refactor cannot move the server's
   answers. *)
let golden_payloads () =
  let module E = Spsta_server.Engine in
  let load = Spsta_experiments.Benchmarks.load in
  let all = [ "const"; "reconv"; "obs"; "crit" ] in
  [ ("static s27", fun () -> E.static_payload (load "s27") ~passes:all);
    ("static s344", fun () -> E.static_payload (load "s344") ~passes:all);
    ("static s344 reconv", fun () -> E.static_payload (load "s344") ~passes:[ "reconv" ]);
    ( "size s27",
      fun () ->
        E.size_payload (load "s27") ~quantile:0.99 ~target:None ~max_moves:4 ~candidates:8
          ~sizes:4 ~ratio:1.5 ~initial:Protocol.Smallest ~check:false );
    ( "size s344",
      fun () ->
        E.size_payload (load "s344") ~quantile:0.95 ~target:(Some 12.0) ~max_moves:6
          ~candidates:4 ~sizes:3 ~ratio:2.0 ~initial:Protocol.Largest ~check:true );
    ( "analyze s27",
      fun () ->
        E.analyze_payload (load "s27") ~case:Protocol.Case_ii ~top:2 ~check:false ~domains:1 );
    ("ssta s344", fun () -> E.ssta_payload (load "s344") ~top:3 ~check:false ~domains:1);
    ( "mc s27",
      fun () ->
        E.mc_payload (load "s27") ~case:Protocol.Case_i ~runs:100 ~seed:3 ~top:0 ) ]

let test_payload_bytes () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "golden/payloads.tsv"
  in
  let expected =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           let tab = String.index l '\t' in
           (String.sub l 0 tab, String.sub l (tab + 1) (String.length l - tab - 1)))
  in
  let cases = golden_payloads () in
  Alcotest.(check (list string)) "labels" (List.map fst expected) (List.map fst cases);
  List.iter2
    (fun (label, bytes) (_, payload) ->
      Alcotest.(check string) label bytes (Json.to_string (payload ())))
    expected cases;
  (* "mc_engine" is accepted and ignored: a scalar request is answered
     with the packed row's bytes *)
  let line =
    {|{"id":"s","kind":"mc","circuit":"s27","case":"I","runs":100,"seed":3,"mc_engine":"scalar"}|}
  in
  match Protocol.request_of_line line with
  | Error _ -> Alcotest.fail "scalar mc request rejected"
  | Ok request -> (
    match Spsta_server.Engine.execute (Cache.create ()) request with
    | Protocol.Ok { result; _ } ->
      Alcotest.(check string) "mc_engine scalar" (List.assoc "mc s27" expected)
        (Json.to_string result)
    | _ -> Alcotest.fail "scalar mc request failed")

let suite =
  [
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "cache load errors" `Quick test_cache_load_errors;
    Alcotest.test_case "cache digest stable" `Quick test_cache_digest_stable;
    Alcotest.test_case "memo single-flight" `Quick test_memo_single_flight;
    Alcotest.test_case "pool results" `Quick test_pool_results;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool deadline" `Quick test_pool_deadline;
    Alcotest.test_case "pool drain" `Quick test_pool_drain;
    Alcotest.test_case "pool callback errors" `Quick test_pool_callback_errors;
    Alcotest.test_case "pool stats hammer" `Quick test_pool_stats_hammer;
    Alcotest.test_case "lru stats hammer" `Quick test_lru_stats_hammer;
    Alcotest.test_case "batch memo hits" `Quick test_batch_memo_hits;
    Alcotest.test_case "batch deterministic across pool sizes" `Quick
      test_batch_deterministic_across_pool_sizes;
    Alcotest.test_case "batch identical across domains" `Quick
      test_batch_identical_across_domains;
    Alcotest.test_case "batch error isolation" `Quick test_batch_error_isolation;
    Alcotest.test_case "batch stats sees traffic" `Quick test_batch_stats_sees_traffic;
    Alcotest.test_case "payload bytes pinned" `Quick test_payload_bytes;
  ]
