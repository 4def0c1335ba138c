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
# doubling a PLA's product terms must grow the whole flat
# extract_netlist < 3x: verify_extract_flat[_2x_terms], at n = 4 here,
# n = 8 via `make bench`), the flow ladder (bench_flow flow_mult_xy_* — each
# stage of a --compact xy job, job.generate, compact.flatten,
# job.compact and job.emit, grows <= 5x per 4x-cell step: 8 -> 16
# here, 16 -> 32 via `make bench`, and no compact.align span may sit
# under a job's job.compact, since its plain passes read no jog;
# bench_flow flow_pla_verify_* — each
# stage of a PLA generate -> verify -> emit job, the generation,
# extract.flatten, verify.extract and the CIF emit, grows <= 3x per
# doubling of the product terms: 8 -> 16 here, 16 -> 32 via `make
# bench`), and the flat-compaction guards
# (bench_flat_compaction — flat xy compaction grows <= 6x per 4x-box
# size step with the collector paused and with it on, one rubber-band
# pass peaks < 200 MB RSS, a cached xy chain costs <= 1.15x the uncached
# one cold and <= 0.2x warm, at 16x16 here and 32x32 via `make bench`;
# the 32x32-with-collector < 0.5 s and
# small-cell leaf-row bounds run via `make bench`), and the packed
# multiplier check (bench_multiplier_correctness — all 65 536 8x8
# operand pairs in under 1 s), and the lane-parallel switch-level
# simulation (bench_verify pla_sim_exhaustive_12in — all 4 096 vectors of a
# 12-input PLA in under 1 s; pla_sim_exhaustive_8in's >= 20x over the
# per-vector oracle runs via `make bench`), and the service hand-off
# guard (bench_service service_roundtrip — the median fresh tiny job
# goes from submit to wait in under 40 ms), and the multiplier
# verification guard (bench_verify verify_multiplier — 8x8 -> 16x16
# verify grows <= 5x; the 16x16 -> 32x32 step, the 32x32 < 0.5 s bound
# and lvs_mult_16's >= 10x over the per-netlist LVS oracle run via
# `make bench`), so a regression to the O(n^2) rescans, the dense LP,
# instance-proportional work, per-round content hashing in LVS or
# one-pair/one-vector-at-a-time checking fails CI.  The bench_hierarchy
# cached case asserts warm output is identical to the uncached oracle;
# bench_scanline, bench_sweep and bench_batch assert every geometry
# pass (visibility scan, DRC, merge, wire extraction, the extraction
# mask walk) matches its *_reference oracle output exactly (the >= 5x
# and >= 3x speedup guards over the oracles run at full sizes via
# `make bench`); the oracles live in tests/oracles/, which
# benchmarks/conftest.py puts on sys.path.
# BENCH_compaction.json is written here too (at the smoke
# sizes) so CI can upload the trajectory per run.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks/bench_*.py -q --benchmark-disable

# Fails when public modules in src/repro/compact/, src/repro/core/,
# src/repro/lang/, src/repro/layout/, src/repro/multiplier/,
# src/repro/obs/, src/repro/pla/, src/repro/route/,
# src/repro/service/ or src/repro/verify/ lack docstrings — the documentation surface the architecture notes depend
# on — or when a test oracle (a *_reference name, repro.geometry.sweep,
# the band scan naive_constraints/_gap_covered, an import of the test
# tree) grows back into the package, or a flat entry point accepts
# **kwargs, method, merge, sizing or sort_edges, or when a
# cold `import repro.cli` loads importlib.metadata, email, http.server,
# scipy or a compactor, verifier, router or service module, or a package's
# lazy export table drifts from its __all__ (tests/test_import_surface.py).
docs-check:
	$(PY) -m pytest tests/test_docstrings.py tests/test_package_surface.py tests/test_import_surface.py -q

all: test bench docs-check
