"""Metric definitions, latency recording and the result line.

Every metric the benchmark can report is declared once in
:data:`END_TO_END` or :data:`PER_LAYER` with its unit.  End-to-end
metrics also carry the bound (a share of the parent's median) by which
they may worsen, and whether every workload reports them: those are the
ones ``BENCHMARK.json`` gates, because the gate needs each of them from
every workload.  The rest come only from the traffic that produces them
(writes, view reads, snapshot reads, checkpoints, recovery on ``oltp``)
and appear in the report line, never as side probes elsewhere.
"""

from __future__ import annotations

import array
import functools
import gc
import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

perf = time.perf_counter

# name -> (unit, better, bound, reported by every workload)
END_TO_END: Dict[str, Tuple[str, str, float, bool]] = {
    "setup_s": ("s", "lower", 0.25, True),
    "ops_per_s": ("1/s", "higher", 0.2, True),
    "read_p50_ms": ("ms", "lower", 0.2, True),
    "read_p95_ms": ("ms", "lower", 0.2, True),
    "rss_peak_mb": ("MB", "lower", 0.1, True),
    "error_rate": ("ratio", "lower", 0.0, False),
    "write_p50_ms": ("ms", "lower", 0.2, False),
    "write_p95_ms": ("ms", "lower", 0.25, False),
    "view_read_p50_ms": ("ms", "lower", 0.2, False),
    "snapshot_read_p50_ms": ("ms", "lower", 0.2, False),
    "checkpoint_ms": ("ms", "lower", 0.25, False),
    "recovery_s": ("s", "lower", 0.25, False),
    "wal_bytes_per_write": ("B", "lower", 0.0, False),
}

GATED = [name for name, spec in END_TO_END.items() if spec[3]]

# name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "pipeline.parse_ms": ("ms", "lower"),
    "pipeline.normalize_ms": ("ms", "lower"),
    "pipeline.analyze_ms": ("ms", "lower"),
    "pipeline.plan_ms": ("ms", "lower"),
    "pipeline.compile_share": ("ratio", "lower"),
    "pipeline.stmt_cache_hit_ratio": ("ratio", "higher"),
    "pipeline.execute_ms": ("ms", "lower"),
    "op.Project.self_ms": ("ms", "lower"),
    "op.ExtentScan.self_ms": ("ms", "lower"),
    "op.PathEval.self_ms": ("ms", "lower"),
    "op.Quantify.self_ms": ("ms", "lower"),
    "op.HashJoin.self_ms": ("ms", "lower"),
    "op.rows_in_per_row_out": ("ratio", "lower"),
    "cost.estimation_error_mean": ("ratio", "lower"),
    "paths.cache_hit_ratio": ("ratio", "higher"),
    "paths.invalidations_per_write": ("count", "lower"),
    "paths.memo_hit_ratio": ("ratio", "higher"),
    "store.write_execute_ms": ("ms", "lower"),
    "wal.apply_ms": ("ms", "lower"),
    "wal.batches_per_write": ("count", "lower"),
    "wal.bytes_per_batch": ("B", "lower"),
    "checkpoint.image_bytes": ("B", "lower"),
    "recovery.replay_s": ("s", "lower"),
    "recovery.adopt_s": ("s", "lower"),
    "recovery.records_replayed": ("count", "lower"),
    "mvcc.pin_ms": ("ms", "lower"),
    "mvcc.release_ms": ("ms", "lower"),
    "mvcc.chain_entries_peak": ("count", "lower"),
    "views.sync_ms": ("ms", "lower"),
    "views.targeted_syncs": ("count", "lower"),
    "views.refresh_syncs": ("count", "lower"),
    "views.rebuild_syncs": ("count", "lower"),
    "views.groups_per_sync": ("count", "lower"),
    "trace.overhead_ops_per_s": ("1/s", "lower"),
}


#: Counts that repeat exactly across runs with the same seed: they count
#: work, not time, and the traced window is a fixed number of cycles.
EXACT = frozenset({
    "pipeline.stmt_cache_hit_ratio",
    "op.rows_in_per_row_out",
    "paths.cache_hit_ratio",
    "paths.invalidations_per_write",
    "wal.batches_per_write",
    "wal.bytes_per_batch",
    "checkpoint.image_bytes",
    "recovery.records_replayed",
    "mvcc.chain_entries_peak",
    "views.targeted_syncs",
    "views.refresh_syncs",
    "views.rebuild_syncs",
    "views.groups_per_sync",
})


def percentile(values: List[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: List[float]) -> float:
    return percentile(values, 0.5)


@dataclass
class Recorder:
    """Per-kind latencies and op outcomes of one measured phase."""

    #: kind -> [(started, seconds)] of the ops that completed correctly.
    latencies: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Failure messages by exception type (first one kept per type).
    errors: Dict[str, str] = field(default_factory=dict)

    def ok(self, kind: str, started: float, seconds: float) -> None:
        self.attempted += 1
        self.latencies.setdefault(kind, []).append((started, seconds))

    def wrong_result(self, kind: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += 1
        self.errors.setdefault(f"{kind}: wrong result", kind)

    def raised(self, kind: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.setdefault(
            f"{kind}: {type(exc).__name__}", str(exc)[:200]
        )

    def samples(self, kind: str) -> List[Tuple[float, float]]:
        return self.latencies.get(kind, [])


#: The reference loop's two parts: lookups in a small dict, which stays
#: in a core's own caches, and a pointer chase through 4M int32
#: successors, 16 MB, far past them.  Each successor is a fixed large
#: odd stride ahead, which makes one cycle through every entry; each
#: call walks on from where the last one stopped, so it never finds its
#: lines still cached.
_LOOKUP_TABLE = {f"key{i}": i for i in range(500)}
_LOOKUP_KEYS = tuple(_LOOKUP_TABLE)
_LOOKUP_PASSES = 9
_CHASE_ENTRIES = 1 << 22
_CHASE_STRIDE = 2_592_223
_CHASE_STEPS = 2_500
_chase_at = 0


@functools.lru_cache(maxsize=1)
def _chase_table() -> array.array:
    table = array.array("i", range(_CHASE_STRIDE, _CHASE_ENTRIES))
    table.extend(range(_CHASE_STRIDE))
    return table


def reference_loop() -> float:
    """Seconds one fixed lookup loop and pointer chase take on the host now.

    Other tenants slow a shared host in two ways: by taking the core's
    execution units, which slows the lookups, and by crowding the shared
    cache and memory, which slows the chase and the workload's large
    heap.  Timing both halves, which take about equal time, follows the
    workload better than either alone: on a shared 2-vCPU Xeon virtual
    machine, over 4 minutes of repeated ``analytic`` cycles in 15 s
    windows, the log-residual spread of cycle time was 0.062 unscaled,
    0.033 scaled by the lookups alone, 0.039 by the chase alone and
    0.031 by both.  The loop runs with the
    collector off and creates only short-lived ints, which the collector
    does not track, so its time does not depend on the heap the
    workload has built.
    """
    global _chase_at
    table = _chase_table()
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf()
        total = 0
        for _ in range(_LOOKUP_PASSES):
            for key in _LOOKUP_KEYS:
                total += _LOOKUP_TABLE[key] * 7 % 13
        index = _chase_at
        for _ in range(_CHASE_STEPS):
            index = table[index]
        elapsed = perf() - started
        _chase_at = index
        return elapsed
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Host speed, sampled between ops, to scale timings to one speed.

    On a shared virtual machine the same Python code runs up to 1.5x
    slower for seconds at a time while other tenants load the host, so
    raw wall times of two runs of the same code differ by more than the
    changes the benchmark must detect.  The probe times
    :func:`reference_loop` every :attr:`interval_s` of the measured
    phase (between ops, never inside one) and scales each timing by
    ``NOMINAL_S / (median of the nearest probes)``: a reported
    millisecond is a millisecond on a host where the reference loop
    takes :data:`NOMINAL_S`.  The report line keeps every raw value.
    """

    #: The reference loop's time at the speed timings are scaled to
    #: (about its median on a shared 2-vCPU Xeon virtual machine).
    NOMINAL_S = 0.001
    #: Probes on each side of a timing that set its scale.
    WINDOW = 3

    def __init__(self, interval_s: float = 0.1) -> None:
        _chase_table()  # built here, not inside the first timed sample
        self.interval_s = interval_s
        self.at: List[float] = []
        self.seconds: List[float] = []
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.at.append(perf())
            self.seconds.append(reference_loop())

    def tick(self) -> None:
        """Sample if one is due (the timed loop calls this between ops)."""
        if perf() >= self._due:
            self.sample()
            self._due = perf() + self.interval_s

    def factor(self, at: float) -> float:
        index = bisect_left(self.at, at)
        near = self.seconds[max(0, index - self.WINDOW): index + self.WINDOW]
        return self.NOMINAL_S / median(near)

    def scale(self, started: float, seconds: float) -> float:
        return seconds * self.factor(started + seconds / 2)

    def scaled_span(self, started: float, ended: float) -> float:
        """Scaled length of a stretch of the timed loop, probes excluded."""
        marks = [t for t in self.at if started < t < ended]
        edges = [started] + marks + [ended]
        total = 0.0
        for left, right in zip(edges, edges[1:]):
            total += (right - left) * self.factor((left + right) / 2)
        spent = sum(
            s for t, s in zip(self.at, self.seconds) if started < t < ended
        )
        return total - spent * self.factor((started + ended) / 2)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    #: The unscaled measurement, for timings scaled by a SpeedProbe.
    raw: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        out = {"value": self.value, "unit": self.unit, "samples": self.samples}
        if self.raw is not None:
            out["raw"] = self.raw
        return out


def ms(seconds: float) -> float:
    return seconds * 1000.0


def timing(
    samples: List[Tuple[float, float]], probe: Optional[SpeedProbe],
    fraction: float, unit: str,
) -> Metric:
    """A percentile of ``(started, seconds)`` samples, scaled by *probe*."""
    raw = [seconds for _started, seconds in samples]
    scaled = raw
    if probe is not None:
        scaled = [probe.scale(started, secs) for started, secs in samples]
    convert = ms if unit == "ms" else float
    return Metric(
        convert(percentile(scaled, fraction)), unit, len(samples),
        raw=convert(percentile(raw, fraction)),
    )


def latency_metrics(
    rec: Recorder, kind: str, prefix: str, probe: Optional[SpeedProbe],
    p95: bool = True,
) -> Dict[str, Metric]:
    """``<prefix>_p50_ms`` (and ``_p95_ms``) over one op kind."""
    samples = rec.samples(kind)
    out = {f"{prefix}_p50_ms": timing(samples, probe, 0.5, "ms")}
    if p95:
        out[f"{prefix}_p95_ms"] = timing(samples, probe, 0.95, "ms")
    return out


def result_lines(
    metrics: Dict[str, Metric],
    reported: List[str],
    rec: Recorder,
    extra: Optional[Dict[str, object]] = None,
) -> List[str]:
    """The report line (every metric, with samples) and the result line.

    The result line is the last line of standard output: ``correct``,
    ``attempted``, ``failed`` and exactly the metrics named in
    *reported*.  ``correct`` is false when any completed op returned a
    wrong answer; ops that raised are counted in ``failed``.
    """
    report = {
        "report": {name: metric.as_dict() for name, metric in metrics.items()},
        "errors": rec.errors,
    }
    if extra:
        report.update(extra)
    result = {
        "correct": rec.wrong == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": metrics[name].value, "unit": metrics[name].unit}
            for name in reported
        },
    }
    return [json.dumps(report, sort_keys=True), json.dumps(result)]
