# Convenience targets; everything also runs as plain pytest commands
# (see README.md).  PYTHONPATH=src keeps the targets usable without an
# editable install.

PY := PYTHONPATH=src python

.PHONY: test chaos bench bench-smoke docs-check all

test:
	$(PY) -m pytest tests/ -q

# The fault-injection suite by itself: seeded FaultPlans (crashes at
# commit boundaries, torn artifact writes, injected ENOSPC/EIO,
# SIGKILLed workers, dropped HTTP responses) swept through the live
# service, with the invariant checker asserting no wedged jobs, no
# torn artifact served, dedup preserved, and every failure classified
# (docs/architecture.md section 11).  Included in `make test` too;
# this target is the fast loop while working on robustness code.
chaos:
	$(PY) -m pytest tests/test_service_chaos.py -q

# The glob matters: bench_*.py does not match pytest's default
# test_*.py collection pattern, so naming the files explicitly is what
# makes them collect (a bare `pytest benchmarks/` silently runs none).
# Benchmarks that call the `record` fixture also write their timing
# rows to BENCH_compaction.json at the repo root on session finish —
# the machine-readable perf trajectory (docs/architecture.md).
bench:
	$(PY) -m pytest benchmarks/bench_*.py -q

# One pass over every benchmark at its smallest size: the benchmark
# fixture runs each workload once without timing loops, and the
# REPRO_BENCH_SMOKE knob trims size-parameterised benchmarks (routing,
# connectivity) to their smallest case.  The scaling guards still run
# here: the geometry-pass guards (bench_scanline, bench_sweep — doubling
# the box count must stay sub-quadratic), the hierarchy-pipeline
# flatten guard (bench_hierarchy — doubling the instance count must
# grow flatten time < 3x), the verification guard (bench_verify —
# doubling the stamped instances must grow hierarchical extraction
# < 3x), and the flat-compaction guards (bench_flat_compaction — flat
# xy compaction grows <= 6x per 4x-box size step, one rubber-band pass
# peaks < 200 MB RSS), and the packed multiplier check
# (bench_multiplier_correctness — all 65 536 8x8 operand pairs in
# under 1 s), and the lane-parallel switch-level simulation
# (bench_verify pla_sim_exhaustive_12in — all 4 096 vectors of a
# 12-input PLA in under 1 s; pla_sim_exhaustive_8in's >= 20x over the
# per-vector oracle runs via `make bench`), so a regression to the
# O(n^2) rescans, the dense LP, instance-proportional work or
# one-pair/one-vector-at-a-time checking fails CI.  The bench_hierarchy
# parallel case asserts jobs=2 output is identical to serial at every
# size; bench_verify asserts hier extraction is LVS-identical to flat;
# bench_scanline, bench_sweep and bench_batch assert every geometry
# pass (visibility scan, DRC, merge, wire extraction, the extraction
# mask walk) matches its *_reference oracle output exactly (the >= 5x
# and >= 3x speedup guards over the oracles run at full sizes via
# `make bench`).
# BENCH_compaction.json is written here too (at the smoke
# sizes) so CI can upload the trajectory per run.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks/bench_*.py -q --benchmark-disable

# Fails when public modules in src/repro/compact/, src/repro/route/ or
# src/repro/verify/ lack docstrings — the documentation surface the
# architecture notes depend on.
docs-check:
	$(PY) -m pytest tests/test_docstrings.py -q

all: test bench docs-check
