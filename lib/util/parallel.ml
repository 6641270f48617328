(* Deterministic fork/join helpers over OCaml 5 domains, backed by one
   persistent worker pool.

   The unit of work is either a contiguous index range ([iter_ranges])
   or a chunk index ([run_chunks]).  Decompositions are deterministic
   functions of the problem size and the requested domain count, and the
   per-unit work of every caller is order-independent, so results are
   bit-identical at every domain count — the property the levelized
   analyzers rely on.

   Workers are spawned once (lazily, growing to the largest domain count
   ever requested) and reused across calls: a levelized sweep that used
   to pay [depth * (domains - 1)] domain spawns now pays zero.  Within a
   job, chunks are claimed through an atomic work index, so an uneven
   chunk cost profile (e.g. grid-backend gates whose support widths
   differ) load-balances itself without affecting which chunk computes
   what. *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let check_domains = function
  | d when d >= 1 -> d
  | _ -> invalid_arg "Parallel: domains must be positive"

let ranges ~chunks n =
  let chunks = min chunks n in
  let base = n / chunks and extra = n mod chunks in
  Array.init chunks (fun i ->
      let lo = (i * base) + min i extra in
      let hi = lo + base + if i < extra then 1 else 0 in
      (lo, hi))

(* ---------- the persistent pool ---------- *)

(* One job at a time (a [submit] mutex serialises callers; nested or
   concurrent parallel regions fall back to inline execution).  Workers
   sleep on [work_cond] between jobs and claim chunks from [next]; the
   submitting domain participates too, then waits for stragglers on
   [done_cond].  Short spins before both blocking waits keep the per-job
   (= per-level) barrier in the sub-microsecond range when the pool is
   hot, while still yielding the core on oversubscribed hosts. *)

type job = {
  active : int;  (* how many workers may help (submitter always does) *)
  chunks : int;
  f : int -> unit;
  next : int Atomic.t;  (* work index: next chunk to claim *)
  remaining : int Atomic.t;  (* chunks not yet completed *)
  failed : exn option Atomic.t;  (* first exception from any chunk *)
}

type pool = {
  mutex : Mutex.t;
  work_cond : Condition.t;  (* "a new job (or shutdown) was posted" *)
  done_cond : Condition.t;  (* "the current job completed" *)
  mutable generation : int;  (* bumped per job, under [mutex] *)
  gen_hint : int Atomic.t;  (* mirror of [generation] for lock-free spins *)
  mutable job : job option;
  mutable size : int;  (* spawned workers *)
  mutable workers : unit Domain.t list;
  mutable jobs_posted : int;
  mutable shutdown : bool;
  submit : Mutex.t;
}

(* OCaml caps live domains at a small fixed limit (128 on current
   runtimes); leave room for the main domain and for code that spawns
   domains of its own (the analysis server's request pool). *)
let max_workers = 64

let spin_limit = 4096

(* Built eagerly: the record only holds mutexes and counters (workers
   are spawned on first use by [ensure_workers]), and a [lazy] here
   raised [CamlinternalLazy.Undefined] when two domains made their first
   parallel call at the same time. *)
let the_pool =
  {
    mutex = Mutex.create ();
    work_cond = Condition.create ();
    done_cond = Condition.create ();
    generation = 0;
    gen_hint = Atomic.make 0;
    job = None;
    size = 0;
    workers = [];
    jobs_posted = 0;
    shutdown = false;
    submit = Mutex.create ();
  }

(* Claim and run chunks until the work index runs dry.  After a failure
   the remaining chunks are still claimed and counted (so completion
   accounting stays exact) but not run. *)
let drain pool job =
  let rec loop () =
    let k = Atomic.fetch_and_add job.next 1 in
    if k < job.chunks then begin
      (if Atomic.get job.failed = None then
         try job.f k
         with e -> ignore (Atomic.compare_and_set job.failed None (Some e)));
      let left = Atomic.fetch_and_add job.remaining (-1) - 1 in
      if left = 0 then begin
        (* wake a submitter that gave up spinning; taking the mutex
           orders this broadcast against its remaining-check *)
        Mutex.lock pool.mutex;
        Condition.broadcast pool.done_cond;
        Mutex.unlock pool.mutex
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop pool index seen =
  (* consecutive levels of one sweep post jobs microseconds apart:
     watch the generation hint briefly before sleeping *)
  let spun = ref 0 in
  while Atomic.get pool.gen_hint = seen && !spun < spin_limit do
    Domain.cpu_relax ();
    incr spun
  done;
  Mutex.lock pool.mutex;
  while pool.generation = seen && not pool.shutdown do
    Condition.wait pool.work_cond pool.mutex
  done;
  if pool.shutdown then Mutex.unlock pool.mutex
  else begin
    let gen = pool.generation in
    let job = pool.job in
    Mutex.unlock pool.mutex;
    (match job with
    | Some j when index < j.active -> drain pool j
    | Some _ | None -> ());
    worker_loop pool index gen
  end

let shutdown_pool () =
  let pool = the_pool in
  Mutex.lock pool.mutex;
  pool.shutdown <- true;
  Condition.broadcast pool.work_cond;
  let workers = pool.workers in
  pool.workers <- [];
  pool.size <- 0;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

(* Grow the pool to [wanted] workers.  Only called with [pool.submit]
   held, so [generation] is stable and no job can be posted mid-growth. *)
let ensure_workers pool wanted =
  let wanted = min wanted max_workers in
  if pool.size < wanted && not pool.shutdown then begin
    Mutex.lock pool.mutex;
    let first = pool.size = 0 in
    while pool.size < wanted do
      let index = pool.size and gen0 = pool.generation in
      let d = Domain.spawn (fun () -> worker_loop pool index gen0) in
      pool.workers <- d :: pool.workers;
      pool.size <- pool.size + 1
    done;
    Mutex.unlock pool.mutex;
    if first then at_exit shutdown_pool
  end

let run_chunks ~domains ~chunks f =
  let domains = check_domains domains in
  if chunks > 0 then begin
    if domains = 1 || chunks = 1 then
      for k = 0 to chunks - 1 do
        f k
      done
    else begin
      let pool = the_pool in
      if not (Mutex.try_lock pool.submit) then
        (* nested / concurrent parallel region: the single job slot is
           busy, so run inline (same chunks, same results) rather than
           queueing behind — or deadlocking on — our own pool *)
        for k = 0 to chunks - 1 do
          f k
        done
      else
        Fun.protect
          ~finally:(fun () -> Mutex.unlock pool.submit)
          (fun () ->
            ensure_workers pool (domains - 1);
            let active = min (domains - 1) pool.size in
            let job =
              {
                active;
                chunks;
                f;
                next = Atomic.make 0;
                remaining = Atomic.make chunks;
                failed = Atomic.make None;
              }
            in
            Mutex.lock pool.mutex;
            pool.job <- Some job;
            pool.generation <- pool.generation + 1;
            pool.jobs_posted <- pool.jobs_posted + 1;
            Atomic.set pool.gen_hint pool.generation;
            Condition.broadcast pool.work_cond;
            Mutex.unlock pool.mutex;
            drain pool job;
            (* every chunk is claimed; wait for helpers to finish theirs *)
            let spun = ref 0 in
            while Atomic.get job.remaining > 0 && !spun < spin_limit do
              Domain.cpu_relax ();
              incr spun
            done;
            if Atomic.get job.remaining > 0 then begin
              Mutex.lock pool.mutex;
              while Atomic.get job.remaining > 0 do
                Condition.wait pool.done_cond pool.mutex
              done;
              Mutex.unlock pool.mutex
            end;
            (* job done: clear the slot so [f] (and what it closes over)
               does not outlive the call *)
            Mutex.lock pool.mutex;
            pool.job <- None;
            Mutex.unlock pool.mutex;
            match Atomic.get job.failed with Some e -> raise e | None -> ())
    end
  end

let iter_ranges ~domains n f =
  let domains = check_domains domains in
  if n > 0 then begin
    if domains = 1 || n = 1 then f 0 n
    else begin
      let bounds = ranges ~chunks:domains n in
      run_chunks ~domains ~chunks:(Array.length bounds) (fun k ->
          let lo, hi = bounds.(k) in
          f lo hi)
    end
  end

let pool_size () = the_pool.size

let pool_jobs () = the_pool.jobs_posted
