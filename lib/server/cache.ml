(* Caching layer for the analysis service.

   Two levels, both LRU with hit/miss/eviction counters and both safe to
   share across worker domains:

   - a circuit cache: parsed {!Spsta_netlist.Circuit.t} values keyed by the
     circuit argument (suite name or file path), each stored with a content
     digest so memoised results survive cache eviction and reload;
   - a result memo table: encoded JSON payloads keyed by
     (circuit digest, engine, input case, delay/engine params).

   Repeated what-if queries over the same netlist — the dominant SPSTA
   workload shape — then pay the parse cost once and the analysis cost once
   per distinct parameter set. *)

module Lru = struct
  type 'a entry = { value : 'a; mutable tick : int }

  type 'a t = {
    capacity : int;
    table : (string, 'a entry) Hashtbl.t;
    mutex : Mutex.t;
    mutable clock : int;
    (* counters are atomic, not merely mutex-guarded: the accessors below
       are called from [stats] requests on other domains without taking
       [mutex], which would otherwise be a data race on a plain mutable
       field *)
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    { capacity; table = Hashtbl.create (2 * capacity); mutex = Mutex.create ();
      clock = 0; hits = Atomic.make 0; misses = Atomic.make 0; evictions = Atomic.make 0 }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let lookup ~count_miss t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some e ->
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          Atomic.incr t.hits;
          Some e.value
        | None ->
          if count_miss then Atomic.incr t.misses;
          None)

  let find t key = lookup ~count_miss:true t key

  (* Counts a hit but not a miss: for a fast path whose miss is counted
     by the full lookup that follows it. *)
  let find_hit t key = lookup ~count_miss:false t key

  (* Evict the least-recently-used entry.  A linear scan over at most
     [capacity] entries; capacities here are tens to hundreds, far below
     the cost of a single timing analysis. *)
  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, best) when best <= e.tick -> ()
        | _ -> victim := Some (key, e.tick))
      t.table;
    match !victim with
    | Some (key, _) ->
      Hashtbl.remove t.table key;
      Atomic.incr t.evictions
    | None -> ()

  let add t key value =
    locked t (fun () ->
        t.clock <- t.clock + 1;
        Hashtbl.remove t.table key;
        while Hashtbl.length t.table >= t.capacity do
          evict_lru t
        done;
        Hashtbl.replace t.table key { value; tick = t.clock })

  let length t = locked t (fun () -> Hashtbl.length t.table)
  let hits t = Atomic.get t.hits
  let misses t = Atomic.get t.misses
  let evictions t = Atomic.get t.evictions

  let counters_json t =
    locked t (fun () ->
        Json.Obj
          [ ("size", Json.int (Hashtbl.length t.table)); ("capacity", Json.int t.capacity);
            ("hits", Json.int (Atomic.get t.hits)); ("misses", Json.int (Atomic.get t.misses));
            ("evictions", Json.int (Atomic.get t.evictions)) ])
end

module Circuit = Spsta_netlist.Circuit
module Bench_io = Spsta_netlist.Bench_io

type loaded = { circuit : Circuit.t; digest : string }

type t = {
  circuits : loaded Lru.t;
  results : Json.t Lru.t;
  loader : string -> Circuit.t;
  store : Store.t option;
      (* persistent backing for the result memo: consulted on LRU miss,
         appended on store, so memoised payloads survive process
         restarts and are shared by every instance on the same path *)
  in_flight : (string, unit) Hashtbl.t;
      (* memo keys whose payload some domain is computing right now;
         guarded by [flight_mutex], with [flight_done] broadcast whenever
         a key leaves the table *)
  flight_mutex : Mutex.t;
  flight_done : Condition.t;
}

exception Load_error of { code : Protocol.error_code; message : string }

let default_loader name_or_path =
  if Sys.file_exists name_or_path then
    if Filename.check_suffix name_or_path ".v" then
      Spsta_netlist.Verilog_io.parse_file name_or_path
    else Bench_io.parse_file name_or_path
  else Spsta_experiments.Benchmarks.load name_or_path

let create ?(loader = default_loader) ?store ?(circuit_capacity = 32)
    ?(result_capacity = 512) () =
  { circuits = Lru.create ~capacity:circuit_capacity;
    results = Lru.create ~capacity:result_capacity;
    loader; store; in_flight = Hashtbl.create 16; flight_mutex = Mutex.create ();
    flight_done = Condition.create () }

let load_circuit t name =
  match Lru.find t.circuits name with
  | Some loaded -> loaded
  | None ->
    let circuit =
      try t.loader name with
      | Not_found ->
        raise
          (Load_error
             { code = Protocol.Circuit_not_found;
               message = Printf.sprintf "%s is neither a file nor a suite circuit" name })
      | Bench_io.Parse_error { line; message } ->
        raise
          (Load_error
             { code = Protocol.Parse_failure;
               message = Printf.sprintf "%s:%d: %s" name line message })
      | Spsta_netlist.Verilog_io.Parse_error { line; message } ->
        raise
          (Load_error
             { code = Protocol.Parse_failure;
               message = Printf.sprintf "%s:%d: %s" name line message })
      | Sys_error message -> raise (Load_error { code = Protocol.Parse_failure; message })
    in
    (* digest the canonical .bench text so the same netlist reached via
       different names (file copy vs suite name) shares memoised results *)
    let digest = Digest.to_hex (Digest.string (Bench_io.to_string circuit)) in
    let loaded = { circuit; digest } in
    Lru.add t.circuits name loaded;
    loaded

(* Memo keys spell out every parameter that influences the payload. *)
let memo_key ~digest (kind : Protocol.kind) =
  match kind with
  | Protocol.Analyze p ->
    (* [check] is part of the key even though checked and unchecked runs
       return bit-identical payloads: a checked run that was memoised
       would otherwise let a later [check:true] request hit the cache and
       skip the verification the client asked for *)
    Printf.sprintf "analyze|%s|case=%s|top=%d%s" digest (Protocol.case_name p.case) p.top
      (if p.check then "|check=1" else "")
  | Protocol.Ssta p ->
    Printf.sprintf "ssta|%s|top=%d%s" digest p.top (if p.check then "|check=1" else "")
  | Protocol.Mc p ->
    (* engine-free: every [mc_engine] value is served by the one
       bit-parallel engine *)
    Printf.sprintf "mc|%s|case=%s|runs=%d|seed=%d|top=%d" digest (Protocol.case_name p.case)
      p.runs p.seed p.top
  | Protocol.Paths p ->
    Printf.sprintf "paths|%s|k=%d|sg=%.9g|ss=%.9g|sr=%.9g" digest p.k p.sigma_global
      p.sigma_spatial p.sigma_random
  | Protocol.Size p ->
    (* [check] is in the key for the same reason as analyze/ssta: a
       cached unchecked payload must not satisfy a request that asked
       for the sanitizer *)
    Printf.sprintf "size|%s|q=%.9g|target=%s|moves=%d|cand=%d|sizes=%d|ratio=%.9g|init=%s%s"
      digest p.quantile
      (match p.target with None -> "-" | Some t -> Printf.sprintf "%.9g" t)
      p.max_moves p.candidates p.sizes p.ratio
      (Protocol.size_initial_name p.initial)
      (if p.check then "|check=1" else "")
  | Protocol.Static p ->
    (* [passes] arrive canonicalised (sorted, deduplicated short names)
       from the decoder, so equal selections share one entry *)
    Printf.sprintf "static|%s|passes=%s" digest (String.concat "," p.passes)
  | Protocol.Session_open _ | Protocol.Session_mutate _ | Protocol.Session_query _
  | Protocol.Session_verify _ | Protocol.Session_close _ | Protocol.Stats
  | Protocol.Shutdown ->
    invalid_arg "Cache.memo_key: not a cacheable kind"

(* LRU first, then the persistent store; a store hit is promoted into
   the LRU so repeats stay in memory. *)
let find_result t key =
  match Lru.find t.results key with
  | Some _ as hit -> hit
  | None -> (
    match t.store with
    | None -> None
    | Some store -> (
      match Store.find store key with
      | Some payload ->
        Lru.add t.results key payload;
        Some payload
      | None -> None ) )

let store_result t key payload =
  Lru.add t.results key payload;
  match t.store with None -> () | Some store -> Store.add store key payload

(* Single-flight memo lookup.  The lookup runs under [flight_mutex]
   and only while no domain computes [key], so a miss here means nobody
   has stored the payload and nobody is about to: the caller claims the
   key and computes outside the lock.  Later callers for the same key
   wait until the claim is released and then look again, which is a
   memo hit unless the computation raised — then one of them claims the
   key in turn.  Two identical requests on two workers therefore compute
   once and count one miss and one hit.  An in-memory hit skips the
   flight lock altogether. *)
let find_or_compute t key compute =
  let rec claim () =
    if Hashtbl.mem t.in_flight key then begin
      Condition.wait t.flight_done t.flight_mutex;
      claim ()
    end
    else
      match find_result t key with
      | Some _ as hit -> hit
      | None ->
        Hashtbl.replace t.in_flight key ();
        None
  in
  let found =
    match Lru.find_hit t.results key with
    | Some _ as hit -> hit
    | None ->
      Mutex.lock t.flight_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.flight_mutex) claim
  in
  match found with
  | Some payload -> payload
  | None ->
    let release () =
      Mutex.lock t.flight_mutex;
      Hashtbl.remove t.in_flight key;
      Condition.broadcast t.flight_done;
      Mutex.unlock t.flight_mutex
    in
    Fun.protect ~finally:release (fun () ->
        let payload = compute () in
        store_result t key payload;
        payload)

let store t = t.store

let stats_json t =
  Json.Obj
    ( [ ("circuits", Lru.counters_json t.circuits); ("results", Lru.counters_json t.results) ]
    @ match t.store with None -> [] | Some s -> [ ("store", Store.stats_json s) ] )

let result_hits t = Lru.hits t.results
let result_misses t = Lru.misses t.results
let circuit_hits t = Lru.hits t.circuits
