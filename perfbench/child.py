"""One benchmark run of one workload, inside a fresh interpreter.

``run.py`` starts this file with a fixed ``PYTHONHASHSEED`` and a fresh
work directory; see that file for the command line.

``--trace 0`` (end-to-end): set up :data:`SETUP_REPEATS` times, report
the median as ``setup_s``, ``gc.collect()``, then run whole cycles of
the workload until ``--seconds`` have passed.  Timings are scaled to one
host speed by a :class:`~measure.SpeedProbe`; the report line keeps the
raw values too.

``--trace 1`` (per layer): run a fixed window of :data:`TRACE_CYCLES`
cycles untraced on one fresh setup and traced on another, so the exact
counts repeat run to run and the difference in ops/s is the tracing
overhead.  Per-layer numbers come from the benchmark's spans and from
the system's own ``stats()``, ``version_status()``,
``views.maintenance_status()``, ``storage_status()`` and
``storage_engine.recovery`` surfaces.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

from measure import (
    END_TO_END, GATED, PER_LAYER, Metric, Recorder, SpeedProbe,
    latency_metrics, median, ms, result_lines,
)
from spans import Tracer
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
#: Cycles in the traced window; a cycle is 7 queries on analytic, 20
#: requests on adhoc and one checkpoint interval on oltp.
TRACE_CYCLES = {"analytic": 4, "adhoc": 15, "oltp": 6}

perf = time.perf_counter


def run_cycles(
    workload: Workload, rec: Recorder, cycles, probe=None, tally=None
) -> Tuple[float, float]:
    """Run *cycles* (op lists); return when they started and ended."""
    tracer = workload.tracer
    started = perf()
    for ops in cycles:
        for op in ops:
            if probe is not None:
                probe.tick()
            if tracer is not None:
                tracer.new_request()
            workload.last_compiled = None
            workload.do(op, rec)
            if tally is not None and workload.last_compiled is not None:
                tally.add(workload.last_compiled.last_optree)
    return started, perf()


def until(deadline: float, cycles):
    """Yield cycles until *deadline*, checked only between cycles."""
    for ops in cycles:
        yield ops
        if perf() >= deadline:
            return


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seconds: float) -> List[str]:
    probe = SpeedProbe()
    setups, raw_setups = [], []
    workload.probe = probe
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        probe.sample(SpeedProbe.WINDOW)
        started = perf()
        workload.setup()
        ended = perf()
        probe.sample(SpeedProbe.WINDOW)
        setups.append(probe.scaled_span(started, ended))
        raw_setups.append(ended - started)
    workload.probe = None
    gc.collect()
    rec = Recorder()
    started, ended = run_cycles(
        workload, rec, until(perf() + seconds, workload.cycles()), probe
    )
    probe.sample(SpeedProbe.WINDOW)
    elapsed = ended - started
    completed = _completed(rec)
    metrics: Dict[str, Metric] = {
        "setup_s": Metric(
            median(setups), "s", len(setups), raw=median(raw_setups)
        ),
        "ops_per_s": Metric(
            completed / probe.scaled_span(started, ended), "1/s", completed,
            raw=completed / elapsed,
        ),
    }
    metrics.update(latency_metrics(rec, "read", "read", probe))
    # Over the timed traffic, whole cycles only, so the rate repeats
    # exactly; end-of-run checks still count in attempted and failed.
    metrics["error_rate"] = Metric(
        rec.failed / rec.attempted, "ratio", rec.attempted
    )
    workload.finish(rec, metrics, probe)
    metrics["rss_peak_mb"] = Metric(rss_peak_mb(), "MB", 1)
    for name, metric in metrics.items():
        assert metric.unit == END_TO_END[name][0], name
    return result_lines(
        metrics, GATED, rec,
        {"workload": workload.name, "seconds_measured": elapsed,
         "inputs": workload.facts()},
    )


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

_NO_STATS = {"counters": {}, "timers": {}, "observations": {}}


class StatsDelta:
    """What a window added to ``session.stats()`` counters and timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, after: Dict, before: Dict = _NO_STATS) -> None:
        for name, value in after["counters"].items():
            old = before["counters"].get(name, 0)
            self._bump(self.counters, name, value - old)
        for section in ("timers", "observations"):
            for name, obs in after[section].items():
                old = before[section].get(name, {"total": 0.0, "count": 0})
                self._bump(self.totals, name, obs["total"] - old["total"])
                self._bump(self.counts, name, obs["count"] - old["count"])

    @staticmethod
    def _bump(table: Dict, name: str, by: float) -> None:
        table[name] = table.get(name, 0) + by

    def hit_ratio(
        self, prefix: str, misses: Tuple[str, ...] = ("miss",)
    ) -> Metric:
        hits = self.counters.get(f"{prefix}.hit", 0)
        lookups = hits + sum(
            self.counters.get(f"{prefix}.{miss}", 0) for miss in misses
        )
        return Metric(_ratio(hits, lookups), "ratio", lookups)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class OperatorTally:
    """Self time and rows per operator, from each op's ``last_optree``."""

    def __init__(self) -> None:
        self.self_ms: Dict[str, float] = {}
        self.rows_in = 0
        self.rows_out = 0

    def add(self, tree: Optional[Dict]) -> None:
        if tree is None:
            return
        self.rows_out += tree["rows_out"]
        stack = [tree]
        while stack:
            node = stack.pop()
            name = node["operator"]
            self.self_ms[name] = self.self_ms.get(name, 0.0) + node["time_ms"]
            self.rows_in += node["rows_in"]
            stack.extend(node.get("children", ()))


def traced(workload: Workload) -> List[str]:
    """Per-layer metrics over a fixed window, and the tracing overhead."""
    window = TRACE_CYCLES[workload.name]

    workload.setup()
    gc.collect()
    plain = Recorder()
    started, ended = run_cycles(
        workload, plain, itertools.islice(workload.cycles(), window)
    )
    plain_ops_per_s = _completed(plain) / (ended - started)
    workload.teardown()

    workload.setup()
    gc.collect()
    tracer = Tracer()
    workload.tracer = tracer
    session = workload.session
    tracer.attach(session)
    tally = OperatorTally()
    rec = Recorder()
    before = session.stats()
    started, ended = run_cycles(
        workload, rec, itertools.islice(workload.cycles(), window),
        tally=tally,
    )
    stats = StatsDelta()
    stats.add(session.stats(), before)
    for snapshot_stats in workload.snapshot_stats():
        stats.add(snapshot_stats)
    layers = layer_metrics(workload, tracer, tally, stats, rec)
    layers["trace.overhead_ops_per_s"] = Metric(
        plain_ops_per_s - _completed(rec) / (ended - started),
        "1/s", _completed(rec),
    )
    for name, metric in layers.items():
        assert metric.unit == PER_LAYER[name][0], name
    return result_lines(
        layers, list(PER_LAYER), rec,
        {"workload": workload.name, "spans": tracer.summary(),
         "inputs": workload.facts()},
    )


def _completed(rec: Recorder) -> int:
    return rec.attempted - rec.failed


def layer_metrics(
    workload: Workload, tracer: Tracer, tally: OperatorTally,
    stats: StatsDelta, rec: Recorder,
) -> Dict[str, Metric]:
    """Every per-layer metric; layers the workload does not use read 0."""
    ops = rec.attempted
    writes = len(rec.samples("write"))
    spans = tracer.summary()
    out: Dict[str, Metric] = {}

    compile_s = 0.0
    for stage in ("parse", "normalize", "analyze", "plan", "execute"):
        total = stats.totals.get(stage, 0.0)
        if stage != "execute":
            compile_s += total
        out[f"pipeline.{stage}_ms"] = Metric(
            ms(total) / ops, "ms", stats.counts.get(stage, 0)
        )
    op_seconds = sum(s for v in rec.latencies.values() for _t, s in v)
    out["pipeline.compile_share"] = Metric(
        _ratio(compile_s, op_seconds), "ratio", ops
    )
    out["pipeline.stmt_cache_hit_ratio"] = stats.hit_ratio(
        "cache", ("miss", "invalidated")
    )
    for name in ("Project", "ExtentScan", "PathEval", "Quantify", "HashJoin"):
        out[f"op.{name}.self_ms"] = Metric(
            tally.self_ms.get(name, 0.0) / ops, "ms",
            stats.counters.get(f"op.{name}", 0),
        )
    out["op.rows_in_per_row_out"] = Metric(
        _ratio(tally.rows_in, tally.rows_out), "ratio", tally.rows_out
    )
    estimates = stats.counts.get("cost.estimation_error", 0)
    out["cost.estimation_error_mean"] = Metric(
        _ratio(stats.totals.get("cost.estimation_error", 0.0), estimates),
        "ratio", estimates,
    )
    out["paths.cache_hit_ratio"] = stats.hit_ratio("cache.path")
    out["paths.memo_hit_ratio"] = stats.hit_ratio("cache.memo")
    out["paths.invalidations_per_write"] = Metric(
        _ratio(stats.counters.get("cache.path.invalidated", 0), writes),
        "count", writes,
    )

    def span_mean_ms(name: str) -> Metric:
        entry = spans.get(name, {"count": 0, "seconds": 0.0})
        count = int(entry["count"])
        return Metric(ms(_ratio(entry["seconds"], count)), "ms", count)

    out["store.write_execute_ms"] = span_mean_ms("execute")
    out["wal.apply_ms"] = span_mean_ms("wal.apply")
    batches = out["wal.apply_ms"].samples
    out["wal.batches_per_write"] = Metric(
        _ratio(batches, writes), "count", writes
    )
    out["mvcc.pin_ms"] = span_mean_ms("snapshot_view")
    out["mvcc.release_ms"] = span_mean_ms("snapshot.close")
    events = tracer.view_events
    syncs = len(events)
    out["views.sync_ms"] = Metric(
        ms(_ratio(sum(e["seconds"] for e in events), syncs)), "ms", syncs
    )
    for kind in ("targeted", "refresh", "rebuild"):
        out[f"views.{kind}_syncs"] = Metric(
            sum(1 for e in events if e["kind"] == kind), "count", syncs
        )
    out["views.groups_per_sync"] = Metric(
        _ratio(sum(e["groups"] for e in events), syncs), "count", syncs
    )
    extras = workload.layer_extras(batches)
    for name in (
        "wal.bytes_per_batch", "checkpoint.image_bytes", "recovery.replay_s",
        "recovery.adopt_s", "recovery.records_replayed",
        "mvcc.chain_entries_peak",
    ):
        out[name] = extras.get(name, Metric(0, PER_LAYER[name][0], 0))
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.trace:
        lines = traced(workload)
    else:
        lines = end_to_end(workload, args.seconds)
    workload.teardown()
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
