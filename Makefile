# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean doc quickbench serve-smoke session-smoke bench-json bench-compare lint check-smoke size-smoke scale-smoke static-smoke perfbench-selftest

all: build

build:
	dune build @all

test:
	dune runtest

# API reference from the .mli doc comments (requires odoc)
doc:
	dune build @doc

# full reproduction run: every paper table/figure at the 10K MC budget
bench:
	dune exec bench/main.exe | tee bench_output.txt

# reduced-budget pass for quick iteration
quickbench:
	SPSTA_BENCH_RUNS=500 dune exec bench/main.exe

# machine-readable timings -> BENCH_spsta.json (see doc/perf.md)
bench-json:
	dune exec bench/main.exe -- --json BENCH_spsta.json

# tracked regression gate: re-time the tracked suite (s344, s1238,
# c100k), write this run's history record to a gitignored scratch file
# (so a verification run leaves the committed bench_history.jsonl
# alone), and fail on wall-time regressions against the committed
# baseline document (see doc/perf.md for the workflow).  The default threshold
# is 15%; the gate runs at 25% because shared runners show sustained
# ~1.2x scheduler drift on perfectly stable entries — real kernel
# regressions land well beyond that
bench-compare:
	SPSTA_BENCH_CIRCUITS=s344,s1238 SPSTA_BENCH_RUNS=500 SPSTA_BENCH_SCALE=c100k \
	dune exec bench/main.exe -- --json BENCH_current.json \
	  --history BENCH_current_history.jsonl --compare BENCH_spsta.json --threshold 0.25

# the repo benchmark (BENCHMARK.json, perfbench/) runs its own tests at
# smoke size: every workload end to end, the output checks and the
# metric plumbing (~15 s)
perfbench-selftest:
	sh perfbench/run.sh --self-test

examples:
	dune exec examples/quickstart.exe
	dune exec examples/timing_yield.exe
	dune exec examples/power_estimation.exe
	dune exec examples/glitch_analysis.exe
	dune exec examples/process_variation.exe
	dune exec examples/sequential_analysis.exe
	dune exec examples/gate_sizing.exe

# static netlist/model checking over the whole bundled suite; exits
# non-zero on any Error-severity finding (see doc/lint.md)
lint:
	dune exec bin/spsta_cli.exe -- lint c17 s27 s208 s298 s344 s349 s382 s386 s526 s1196 s1238

# run every analyzer on s27 under the engine-wired invariant sanitizer:
# any NaN, negative mass, lost probability mass or non-monotone CDF at
# any gate fails the target with the offending net named.  s5378 at 4
# domains has levels wider than the pool cutoff, so its checked sweep
# runs on the pooled schedule (s27 and c17 never reach it)
check-smoke:
	dune exec bin/spsta_cli.exe -- check s27
	dune exec bin/spsta_cli.exe -- check c17
	dune exec bin/spsta_cli.exe -- check s5378 --domains 4

# statistical gate sizing under the sanitizer on a small ISCAS circuit:
# the run must commit moves that improve the 99th-percentile chip delay
# (the CLI prints "(improved)" exactly when objective_after < before)
size-smoke:
	@dune exec bin/spsta_cli.exe -- size s344 --max-moves 24 --check | tee /tmp/spsta_size_smoke.txt
	@grep -q "(improved)" /tmp/spsta_size_smoke.txt || { \
	  echo "size-smoke: FAILED (objective did not improve)"; exit 1; }
	@echo "size-smoke: ok"

# bounded 100k-gate scale gate: generation and SSTA wall-time budgets,
# bit-identity of the pooled schedule, the dirty-cone update speedup,
# and (on multi-core hosts only) a ?domains speedup floor
scale-smoke:
	dune exec bench/main.exe -- --scale-smoke
	@echo "scale-smoke: ok"

# the lib/analysis pass stack end to end: all four passes over the
# bundled ISCAS suite and the 100k-gate profile.  --min-regions 1 makes
# the CLI exit nonzero unless every circuit yields at least one
# reconvergent region (they all do, s5378 by the hundred), and the
# greps assert the JSON report shape the server/bench consumers parse
static-smoke:
	dune exec bin/spsta_cli.exe -- static c17 s27 s344 s1196 s5378 --json --min-regions 1 \
	  > /tmp/spsta_static_smoke.json
	@for key in '"facts"' '"constants"' '"reconvergent_regions"' '"unobservable_gates"' \
	  '"never_critical_gates"' '"regions"' '"t_lb"'; do \
	  grep -q "$$key" /tmp/spsta_static_smoke.json || { \
	    echo "static-smoke: FAILED (missing $$key in JSON report)"; exit 1; }; \
	done
	dune exec bin/spsta_cli.exe -- static c100k --json --min-regions 1 \
	  > /tmp/spsta_static_c100k.json
	@grep -q '"circuit":"c100k"' /tmp/spsta_static_c100k.json || { \
	  echo "static-smoke: FAILED (no c100k report)"; exit 1; }
	@echo "static-smoke: ok"

# pipe a 3-request JSONL file through the analysis server and check that
# every request is answered ok (see doc/server.md for the protocol)
serve-smoke:
	@dune exec bin/spsta_cli.exe -- serve < examples/serve_requests.jsonl \
	  > /tmp/spsta_serve_smoke.jsonl 2>/dev/null
	@ok=$$(grep -c '"status":"ok"' /tmp/spsta_serve_smoke.jsonl); \
	if [ "$$ok" -eq 3 ]; then \
	  echo "serve-smoke: 3/3 responses ok"; \
	else \
	  echo "serve-smoke: FAILED ($$ok/3 ok)"; \
	  cat /tmp/spsta_serve_smoke.jsonl; \
	  exit 1; \
	fi

# stateful session smoke over a real unix socket: stream 120 ECO
# mutations on s5378 through one session; the final state must be
# bit-identical to a from-scratch sweep of the mutated circuit with a
# >=5x per-mutation speedup, the server must drain cleanly on SIGTERM,
# and a second instance on the same --store must answer a
# previously-computed batch request as a warm hit without re-analysing
session-smoke:
	@dune build bin/spsta_cli.exe
	@rm -f /tmp/spsta_session.sock /tmp/spsta_session.store
	@_build/default/bin/spsta_cli.exe serve \
	  --socket /tmp/spsta_session.sock --store /tmp/spsta_session.store \
	  2>/tmp/spsta_session_server.log & \
	server=$$!; \
	for i in $$(seq 1 100); do \
	  [ -S /tmp/spsta_session.sock ] && break; sleep 0.1; \
	done; \
	_build/default/bin/spsta_cli.exe session --socket /tmp/spsta_session.sock \
	  --exercise s5378 --mutations 120 --min-speedup 5 \
	  || { echo "session-smoke: FAILED (exercise)"; kill $$server; exit 1; }; \
	kill -TERM $$server; \
	wait $$server \
	  || { echo "session-smoke: FAILED (server did not drain cleanly)"; exit 1; }
	@_build/default/bin/spsta_cli.exe session \
	  --script examples/session_requests.jsonl > /dev/null \
	  || { echo "session-smoke: FAILED (example transcript replay)"; exit 1; }
	@printf '%s\n%s\n' \
	  '{"id":"warm","kind":"ssta","circuit":"s344"}' \
	  '{"id":"st","kind":"stats"}' > /tmp/spsta_session_batch.jsonl
	@_build/default/bin/spsta_cli.exe batch /tmp/spsta_session_batch.jsonl \
	  --store /tmp/spsta_session.store > /dev/null
	@_build/default/bin/spsta_cli.exe batch /tmp/spsta_session_batch.jsonl \
	  --store /tmp/spsta_session.store > /tmp/spsta_session_warm.jsonl
	@grep -o '"store":{[^}]*}' /tmp/spsta_session_warm.jsonl \
	  | grep -q '"hits":1' \
	  || { echo "session-smoke: FAILED (no warm store hit on restart)"; \
	       cat /tmp/spsta_session_warm.jsonl; exit 1; }
	@echo "session-smoke: ok"

clean:
	dune clean
