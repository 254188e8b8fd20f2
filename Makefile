# Convenience targets for the XSQL reproduction.

.PHONY: install test test-all fuzz-smoke fuzz fuzz-concurrent storage-smoke bench bench-analyze bench-scale bench-storage report examples all

install:
	# `pip install -e .` needs the `wheel` package for PEP 660 builds;
	# the setup.py path below works in fully offline environments too.
	pip install -e . 2>/dev/null || python setup.py develop

# Tier-1: the fast suite (slow-marked tests skipped) plus a fixed-seed
# differential fuzz smoke pass (see docs/DIFFTEST.md) and the WAL
# crash-recovery smoke (see docs/STORAGE.md).
test: fuzz-smoke storage-smoke
	pytest tests/

# Everything: slow-marked tests (large workloads, naive-oracle
# equivalence) and a deeper fuzz run across workload sizes.
test-all:
	pytest tests/ --runslow
	PYTHONPATH=src python -m repro.difftest --seed 0 --queries 500 --quiet

# ~200 queries, fixed seed, smallest store: catches engine divergence
# in a few seconds without bloating the edit-test loop.  The second run
# hammers the hash-join executor with explicit-join shapes; the third
# cross-checks the engines over a generated scale-1k population, so
# bulk-loaded data (not just the hand-built paper DB) is covered; the
# fourth runs the join shapes over that population, so the columnar
# Project and HashJoin/SemiJoin see batches of thousands of rows.
# Finally the concurrent snapshot fuzzer interleaves a writer thread
# with pinned readers and replays every observation serially.
fuzz-smoke: fuzz-concurrent
	PYTHONPATH=src python -m repro.difftest --seed 0 --queries 200 --sizes tiny --quiet
	PYTHONPATH=src python -m repro.difftest --seed 0 --queries 120 --sizes tiny --preset joins --quiet
	PYTHONPATH=src python -m repro.difftest --seed 0 --queries 10 --sizes scale-1k --quiet
	PYTHONPATH=src python -m repro.difftest --seed 0 --queries 20 --sizes scale-1k --preset joins --quiet

# Snapshot-isolation smoke: one writer thread (data writes and DDL) vs
# 3 snapshot readers, every (pinned ticket, query, rows) observation
# checked bit-for-bit against single-threaded replay of the op prefix
# (docs/MVCC.md).
fuzz-concurrent:
	PYTHONPATH=src python -m repro.difftest.concurrent --seed 11 \
		--ops 300 --readers 3 --queries 10 --rounds 2

# Open-ended fuzzing; override SEED/QUERIES/SIZES as needed, e.g.
#   make fuzz SEED=7 QUERIES=2000 SIZES=tiny,medium
SEED ?= 0
QUERIES ?= 1000
SIZES ?= tiny,small
fuzz:
	PYTHONPATH=src python -m repro.difftest --seed $(SEED) --queries $(QUERIES) \
		--sizes $(SIZES) --corpus-dir tests/corpus

# WAL crash-recovery smoke: commit a run of journal batches, truncate
# the log mid-record at several byte offsets, recover each copy, and
# assert every survivor equals the state after a committed prefix of
# batches — never a torn half-batch.  The recovery log is the CI
# artifact.
storage-smoke:
	PYTHONPATH=src python -m repro.storage.smoke --batches 24 \
		--out recovery-smoke.log

bench:
	pytest benchmarks/ --benchmark-only

# Write-path overhead per storage backend (dict vs memory mirror vs
# WAL) and log-engine open/replay/checkpoint costs.
bench-storage:
	pytest benchmarks/bench_storage.py --benchmark-only

# Cardinality-estimation accuracy: EXPLAIN ANALYZE over the planner
# workloads, per-operator est-vs-actual dumped into the seeded BENCH
# JSON artifact alongside the speedup criteria.
bench-analyze:
	PYTHONPATH=src python benchmarks/bench_pipeline.py --analyze \
		--json benchmarks/BENCH_pipeline.json

# The scale harness: ingest throughput + query latency percentiles over
# seeded 10^3/10^4/10^5 populations, all plan/join_mode combinations,
# written to the self-describing BENCH_scale.json artifact.  Add
# TIERS="1k 10k 100k 1m" (plus --runslow semantics via the CLI) for the
# million-object tier.
TIERS ?= 1k 10k 100k
bench-scale:
	PYTHONPATH=src python benchmarks/bench_scale.py --tiers $(TIERS) \
		--json benchmarks/BENCH_scale.json

report:
	python -m repro.bench.report

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

all: install test bench report
