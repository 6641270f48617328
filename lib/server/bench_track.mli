(** Benchmark tracking for the machine-readable bench mode
    ([bench/main.exe --json], schema [spsta-bench/5]): flattens a bench
    document into named wall-clock metrics, builds append-only
    per-commit history records, and compares two documents for
    wall-time regressions (the [--compare] gate).  Pure with respect to
    timing — the test suite drives it on synthetic documents. *)

val metrics : Json.t -> (string * float) list
(** Tracked wall-clock metrics of a bench document, as
    [("s344/ssta", seconds); ...] pairs: every [timings_s] entry and
    the sizing wall-times per circuit, and every ["*_s"] field per
    scale profile.  Unrecognised documents yield []. *)

val history_schema : string
(** Schema tag of history records, ["spsta-bench-history/1"]. *)

val history_record : commit:string -> utc:string -> Json.t -> Json.t
(** One history line for a bench document: schema tag, commit id, UTC
    timestamp, the document's [host_cores] / [domains] when present,
    and the flattened {!metrics}. *)

val append_history : path:string -> Json.t -> unit
(** Append one record as a compact JSON line to [path], creating the
    file if needed.  The history file is append-only by construction —
    a chronological log across commits, never rewritten. *)

type regression = { metric : string; base_s : float; current_s : float; ratio : float }
(** A metric whose current time exceeds the baseline by more than the
    threshold; [ratio] = current / base. *)

val default_threshold : float
(** 0.15 — fail on >15% wall-time regression. *)

val compare_docs :
  ?threshold:float -> base:Json.t -> current:Json.t -> unit -> int * regression list
(** [compare_docs ~base ~current ()] matches metrics by name (skipping
    ones present in only one document, and baselines below 100 us:
    few-microsecond entries are decided by loop overhead and timer
    granularity, not the measured kernel) and returns (number compared,
    regressions that exceed [threshold] relative AND 5 ms absolute
    growth — few-millisecond metrics drift 30-40% relative from
    sustained scheduler interference on a shared host, below anything
    the gate could act on).
    ["*_baseline"] metrics — reference timings of deliberately
    unoptimised configurations, kept only to anchor in-process speedup
    ratios — are recorded in history but never gated: there is no
    optimised path behind them to regress. *)
