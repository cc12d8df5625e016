# Developer entry points.  `make check` is the tier-1 gate: the full
# unit suite plus a bytecode compile of every source file.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: check test compile smoke bench bench-gate diff-fidelity fleet \
	perfbench-test

check: test compile smoke

test:
	$(PYTHON) -m pytest -x -q

compile:
	$(PYTHON) -m compileall -q src

# runs the quickstart end to end and asserts a non-empty metrics dump
smoke:
	$(PYTHON) scripts/smoke_quickstart.py

bench:
	$(PYTHON) -m pytest benchmarks -q

# the repo benchmark's own unit tests (outside tier-1's testpaths)
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

# perf-regression gate: scenarios vs tracked BENCH_*.json baselines.
# Refresh baselines with `make bench-gate BENCH_GATE_FLAGS=--update`;
# CI passes --no-wall to skip hardware-dependent wall-clock metrics.
bench-gate:
	$(PYTHON) scripts/bench_gate.py $(BENCH_GATE_FLAGS)

# fleet run: N scenario shards across a multiprocessing pool, merged
# into one fleet archive (benchmarks/out/fleet/fleet_*.json) with
# per-shard wall/RSS/overhead attribution; exits 1 on merged audit
# violations.  `make fleet FLEET_FLAGS="--shards 8 --seed 2024"`.
fleet:
	$(PYTHON) scripts/fleet.py $(FLEET_FLAGS)

# differential fidelity gate: every scenario must be byte-identical
# between the per-cell loop and the cell-train fast path (and, with
# --hybrid in DIFF_FIDELITY_FLAGS, hybrid must hold its toleranced
# contract); prints the repro.obs diff attribution table per scenario
diff-fidelity:
	$(PYTHON) scripts/diff_fidelity.py $(DIFF_FIDELITY_FLAGS)
