(** Deterministic fork/join over a persistent pool of OCaml 5 domains.

    Work is partitioned into contiguous index ranges (or chunk indices)
    that depend only on the problem size and the requested domain count,
    so computations whose per-index work is order-independent give
    bit-identical results at every domain count.

    Worker domains are spawned once — lazily, growing to the largest
    domain count ever requested — and reused across calls: a levelized
    sweep pays zero domain-startup costs instead of one spawn per level
    per helper.  Within one call, chunks are claimed through an atomic
    work index, so uneven chunk costs load-balance dynamically without
    changing which chunk computes what. *)

val default_domains : unit -> int
(** [recommended_domain_count () - 1], at least 1: leave one core for
    the caller's own thread of control. *)

val check_domains : int -> int
(** Identity on positive domain counts; raises [Invalid_argument]
    otherwise.  For validating user-supplied [?domains] knobs. *)

val ranges : chunks:int -> int -> (int * int) array
(** [ranges ~chunks n] splits [0, n) into [min chunks n] contiguous
    near-equal [(lo, hi)] ranges covering every index exactly once. *)

val run_chunks : domains:int -> chunks:int -> (int -> unit) -> unit
(** [run_chunks ~domains ~chunks f] runs [f k] for every
    [k in 0 .. chunks - 1], claimed through an atomic work index by the
    calling domain plus up to [domains - 1] pool workers.  [f] must be
    safe to call concurrently for distinct [k] (each chunk touching
    disjoint state), and the set of calls — hence the result, for
    order-independent work — does not depend on the schedule.

    [domains = 1] (or a single chunk) runs everything inline with no
    pool interaction.  Nested or concurrent calls from a second domain
    detect the busy pool and also degrade to inline execution, so
    parallel regions never deadlock on their own workers.  Exceptions
    raised by a chunk are re-raised in the caller after all claimed
    chunks settle (chunks claimed after the first failure are skipped).
    Raises [Invalid_argument] if [domains < 1]. *)

val iter_ranges : domains:int -> int -> (int -> int -> unit) -> unit
(** [iter_ranges ~domains n f] runs [f lo hi] over the {!ranges}
    partition of [0, n) into [domains] chunks ([domains = 1] runs
    [f 0 n] in the calling domain).  Built on {!run_chunks}: same
    pooling, fallback and exception behaviour, and the partition is the
    same as it always was, so callers see identical range decompositions
    at every domain count. *)

val pool_size : unit -> int
(** Number of worker domains currently alive in the pool (0 before any
    parallel call).  Monotone: the pool grows to the largest
    [domains - 1] requested and never shrinks; the workers are stopped
    and joined at exit. *)

val pool_jobs : unit -> int
(** Total number of pooled jobs executed so far (one per parallel level
    batch / chunked call).  With {!pool_size}, lets tests assert that
    repeated sweeps reuse the same workers instead of spawning. *)
