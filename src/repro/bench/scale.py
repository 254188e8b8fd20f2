"""The scale harness: throughput and latency percentiles vs population size.

``BENCH_pipeline.json`` tracks *ratios* (cache, index, join speedups) on
toy populations; this module is the ROADMAP's "production scale"
measurement surface — absolute numbers on seeded
:mod:`repro.workloads.scale` populations:

* **ingest throughput** — objects/sec for generating (bulk-loading) each
  population tier;
* **query latency** — p50/p95 per query per ``plan``/``join_mode``
  combination, from repeated prepared re-runs;
* **per-operator latency** — p50/p95 of each physical operator's own
  wall time, read off the EXPLAIN ANALYZE instrumentation of every run;
* **latency-vs-scale curves** — a :class:`repro.metrics.PercentileCurve`
  per query, keyed by tier, for the canonical ``cost``/``hash`` mode.

The suite mixes the paper's read-only query shapes (path walks, schema
queries, quantified and aggregate predicates — Q3/Q4/Q6/Q7/Q11 style)
with the S (selective point predicate) and J (join) workloads from
``benchmarks/bench_pipeline.py``, rewritten against generated data.
Queries that are quadratic under merged (tuple-at-a-time) execution
carry explicit applicability caps, so ``plan="cost"``+``join_mode="hash"``
— the only factored mode — is measured at sizes the merged modes cannot
reach; a skipped (query, mode, tier) combination is recorded in the
artifact rather than silently dropped.

Everything lands in ``benchmarks/BENCH_scale.json`` with the full
:class:`~repro.workloads.scale.ScaleSpec` embedded per tier, so a run is
self-describing; :func:`strip_timings` zeroes every timing field, and
two runs from the same seed are byte-for-byte identical after it.
:func:`compare_to_baseline` is the CI gate: >2x regressions of ingest
throughput or worst-case query p95 fail the build, each scaled by the
tier's ``probe_ms`` (perfbench's ``SpeedProbe`` loop time, which
``benchmarks/bench_scale.py`` records beside each tier).

Following the meta-querying program (Van den Bussche et al., "Towards
practical meta-querying"), the artifact is structured data first and a
report second — :func:`render_report` is just a view of the JSON.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics import Observation, PercentileCurve
from repro.workloads.scale import SCALE_TIERS, ScaleSpec, generate_scaled
from repro.xsql.session import Session

__all__ = [
    "MODES",
    "QUERY_SUITE",
    "QuerySpec",
    "compare_to_baseline",
    "render_report",
    "run_scale_benchmark",
    "strip_timings",
    "validate_artifact",
]

#: Artifact schema version (bump on shape changes).
SCHEMA_VERSION = 2

_UNCAPPED = 10**9


@dataclass(frozen=True)
class QuerySpec:
    """One suite query plus its applicability caps.

    ``factored_max``/``merged_max`` bound the population size
    (``ScaleSpec.n_objects``) the query runs at under factored
    (``cost``+``hash``) respectively merged (every other mode)
    execution.  The caps keep known-quadratic shapes — a self-join under
    tuple-at-a-time execution is |extent|² env merges — from turning the
    benchmark into a cross-product stress test; the artifact records
    every skip.
    """

    name: str
    text: str
    factored_max: int = _UNCAPPED
    merged_max: int = _UNCAPPED

    def cap(self, factored: bool) -> int:
        return self.factored_max if factored else self.merged_max


#: The fixed suite: paper-query shapes + S (selective) + J (join)
#: workloads over generated populations.
QUERY_SUITE: List[QuerySpec] = [
    # S: selective point predicates (index-probe territory).
    QuerySpec("S1", "SELECT X FROM Person X WHERE X.Name['P123']"),
    # Two FROM variables: merged execution collapses the whole state
    # into |Person|² envs before the first conjunct can filter, so the
    # merged cap stops at the 1k tier (same for J1/J2 below).
    QuerySpec(
        "S2",
        "SELECT X, Y FROM Person X, Person Y "
        "WHERE X.Name['P7'] and X.Residence[R] and Y.Residence[R]",
        merged_max=1_000,
    ),
    # P: the paper's read-only shapes, Q3/Q4/Q7/Q11/Q6 style.
    QuerySpec(
        "P3", "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"
    ),
    QuerySpec(
        "P4",
        "SELECT Z FROM Employee X "
        "WHERE X.OwnedVehicles.Drivetrain.Engine[Z]",
    ),
    QuerySpec(
        "P7", "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"
    ),
    QuerySpec(
        "P11",
        "SELECT X.Name, W.Salary FROM Company X "
        "WHERE X.Divisions.Employees[W]",
    ),
    QuerySpec("P6", "SELECT #X WHERE TurboEngine subclassOf #X"),
    # A: aggregate predicate.
    QuerySpec(
        "A1",
        "SELECT X FROM Employee X "
        "WHERE count(X.FamMembers) > 2 and X.Salary < 35000",
    ),
    # J: joins.  Merged execution pays the cross product, so the merged
    # cap stops at the 1k tier; the hash side of J2 is output-bound
    # (Age × HPpower matches grow multiplicatively), capped at 10k.
    QuerySpec(
        "J1",
        "SELECT X, Y FROM Employee X, Employee Y "
        "WHERE X.Salary =some Y.Salary",
        merged_max=1_000,
    ),
    QuerySpec(
        "J2",
        "SELECT X, Y FROM Person X, Automobile Y "
        "WHERE X.Age =some Y.Drivetrain.Engine.HPpower",
        factored_max=10_000,
        merged_max=1_000,
    ),
]

#: The mode grid: (plan, join_mode).  Only ``cost``+``hash`` executes
#: factored (set-at-a-time with hash/semi joins); the rest run merged.
MODES: List[Tuple[str, str]] = [
    ("cost", "hash"),
    ("cost", "nested"),
    ("typed", "hash"),
    ("greedy", "hash"),
]

_TIMING_KEYS = frozenset(
    {
        "seconds",
        "objects_per_sec",
        "queries_per_sec",
        "p50_ms",
        "p95_ms",
        "mean_ms",
        "worst_p95_ms",
        "probe_ms",
    }
)


def _is_factored(plan: str, join_mode: str) -> bool:
    return plan == "cost" and join_mode == "hash"


def _walk_optree(tree: Dict[str, object]) -> List[Dict[str, object]]:
    """Depth-first node list of a ``tree_dict`` snapshot (root first)."""
    out = [tree]
    for child in tree.get("children", ()):  # type: ignore[union-attr]
        out.extend(_walk_optree(child))
    return out


def _measure_query(
    session: Session,
    spec: QuerySpec,
    plan: str,
    join_mode: str,
    rounds: int,
) -> Dict[str, object]:
    """Prepared re-runs of one query: latency + per-operator analyze."""
    compiled = session.prepare(spec.text, plan=plan, join_mode=join_mode)
    rows = len(compiled.run().rows())  # warm-up, off the clock
    latency = Observation()
    operator_times: List[Tuple[str, str, Observation]] = []
    for _ in range(rounds):
        started = time.perf_counter()
        compiled.run()
        latency.record(time.perf_counter() - started)
        nodes = _walk_optree(compiled.last_optree)
        if not operator_times:
            operator_times = [
                (node["operator"], node.get("label", ""), Observation())
                for node in nodes
            ]
        for (_op, _label, obs), node in zip(operator_times, nodes):
            obs.record(node["time_ms"] / 1000.0)
    return {
        "query": spec.name,
        "rows": rows,
        "runs": rounds,
        "p50_ms": round(latency.percentile(0.50) * 1000, 4),
        "p95_ms": round(latency.percentile(0.95) * 1000, 4),
        "mean_ms": round(latency.mean * 1000, 4),
        "queries_per_sec": round(
            latency.count / latency.total if latency.total else 0.0, 2
        ),
        "operators": [
            {
                "operator": op,
                "label": label,
                "p50_ms": round(obs.percentile(0.50) * 1000, 4),
                "p95_ms": round(obs.percentile(0.95) * 1000, 4),
            }
            for op, label, obs in operator_times
        ],
        "_seconds_total": latency.total,
    }


def run_scale_benchmark(
    tiers: Sequence[str] = ("1k", "10k", "100k"),
    rounds: int = 3,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    modes: Sequence[Tuple[str, str]] = tuple(MODES),
) -> Dict[str, object]:
    """Run the suite across *tiers* and return the artifact payload."""
    say = progress or (lambda _line: None)
    query_curves: Dict[str, PercentileCurve] = {}
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "suite": "scale",
        "seed": seed,
        "rounds": rounds,
        "tiers": [],
    }
    for tier in tiers:
        if tier not in SCALE_TIERS:
            raise ValueError(
                f"unknown tier {tier!r}; known: {sorted(SCALE_TIERS)}"
            )
        n_objects = SCALE_TIERS[tier]
        spec = ScaleSpec(n_objects=n_objects, seed=seed)
        say(f"[{tier}] generating {n_objects} objects ...")
        started = time.perf_counter()
        store = generate_scaled(spec)
        ingest_seconds = time.perf_counter() - started
        total = spec.counts().total
        say(
            f"[{tier}] ingest {total} objects in {ingest_seconds:.2f}s "
            f"({total / ingest_seconds:,.0f} obj/s)"
        )
        tier_entry: Dict[str, object] = {
            "tier": tier,
            "spec": spec.as_dict(),
            "ingest": {
                "objects": total,
                "seconds": round(ingest_seconds, 4),
                "objects_per_sec": round(total / ingest_seconds, 1),
            },
            "modes": [],
        }
        rows_seen: Dict[str, int] = {}
        for plan, join_mode in modes:
            factored = _is_factored(plan, join_mode)
            session = Session(store)
            mode_entry: Dict[str, object] = {
                "plan": plan,
                "join_mode": join_mode,
                "queries": [],
                "skipped": [],
            }
            mode_seconds = 0.0
            mode_runs = 0
            for qspec in QUERY_SUITE:
                if n_objects > qspec.cap(factored):
                    mode_entry["skipped"].append(qspec.name)
                    continue
                record = _measure_query(
                    session, qspec, plan, join_mode, rounds
                )
                mode_seconds += record.pop("_seconds_total")
                mode_runs += rounds
                mode_entry["queries"].append(record)
                # Cross-mode safety: all modes must agree on row counts.
                expected = rows_seen.setdefault(
                    qspec.name, record["rows"]
                )
                if record["rows"] != expected:
                    raise AssertionError(
                        f"{tier}/{plan}/{join_mode}: {qspec.name} "
                        f"returned {record['rows']} rows, other modes "
                        f"saw {expected}"
                    )
                # Curves track the factored mode only.
                if factored:
                    query_curves.setdefault(
                        qspec.name, PercentileCurve()
                    ).points.setdefault(tier, Observation())
                    curve = query_curves[qspec.name].points[tier]
                    curve.record(record["p50_ms"])
            mode_entry["queries_per_sec"] = round(
                mode_runs / mode_seconds if mode_seconds else 0.0, 2
            )
            p95s = [q["p95_ms"] for q in mode_entry["queries"]]
            mode_entry["worst_p95_ms"] = max(p95s) if p95s else 0.0
            tier_entry["modes"].append(mode_entry)
            say(
                f"[{tier}] plan={plan} join={join_mode}: "
                f"{len(mode_entry['queries'])} queries, "
                f"{mode_entry['queries_per_sec']} q/s, "
                f"worst p95 {mode_entry['worst_p95_ms']}ms"
            )
        payload["tiers"].append(tier_entry)
    payload["curves"] = {
        name: curve.as_dict() for name, curve in query_curves.items()
    }
    return payload


# ----------------------------------------------------------------------
# artifact shape, determinism, and the CI gate
# ----------------------------------------------------------------------


def validate_artifact(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless *payload* has the BENCH_scale shape."""

    def need(mapping, key, where, kind=None):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ValueError(f"{where}: missing {key!r}")
        if kind is not None and not isinstance(mapping[key], kind):
            raise ValueError(
                f"{where}.{key}: expected {kind}, got "
                f"{type(mapping[key]).__name__}"
            )
        return mapping[key]

    if need(payload, "schema_version", "artifact") != SCHEMA_VERSION:
        raise ValueError("artifact: unsupported schema_version")
    if need(payload, "suite", "artifact") != "scale":
        raise ValueError("artifact: suite must be 'scale'")
    need(payload, "seed", "artifact", int)
    need(payload, "rounds", "artifact", int)
    tiers = need(payload, "tiers", "artifact", list)
    if not tiers:
        raise ValueError("artifact.tiers: must be non-empty")
    for tier in tiers:
        where = f"tier[{tier.get('tier') if isinstance(tier, dict) else '?'}]"
        need(tier, "tier", where, str)
        spec = need(tier, "spec", where, dict)
        need(spec, "n_objects", f"{where}.spec", int)
        need(spec, "seed", f"{where}.spec", int)
        need(spec, "counts", f"{where}.spec", dict)
        ingest = need(tier, "ingest", where, dict)
        for key in ("objects", "seconds", "objects_per_sec"):
            need(ingest, key, f"{where}.ingest", (int, float))
        modes = need(tier, "modes", where, list)
        if not modes:
            raise ValueError(f"{where}.modes: must be non-empty")
        for mode in modes:
            mwhere = f"{where}.{mode.get('plan')}/{mode.get('join_mode')}"
            need(mode, "plan", mwhere, str)
            need(mode, "join_mode", mwhere, str)
            need(mode, "skipped", mwhere, list)
            need(mode, "worst_p95_ms", mwhere, (int, float))
            for query in need(mode, "queries", mwhere, list):
                qwhere = f"{mwhere}.{query.get('query')}"
                need(query, "query", qwhere, str)
                need(query, "rows", qwhere, int)
                need(query, "runs", qwhere, int)
                for key in ("p50_ms", "p95_ms", "mean_ms"):
                    need(query, key, qwhere, (int, float))
                for op in need(query, "operators", qwhere, list):
                    need(op, "operator", f"{qwhere}.operators", str)
                    need(op, "p50_ms", f"{qwhere}.operators", (int, float))
                    need(op, "p95_ms", f"{qwhere}.operators", (int, float))
    need(payload, "curves", "artifact", dict)


def strip_timings(payload: Dict[str, object]) -> Dict[str, object]:
    """A deep copy with every timing/throughput field zeroed.

    Two runs of the same ``(seed, tiers, rounds)`` are byte-for-byte
    identical after this — the reproducibility contract of the harness.
    """

    def scrub(node, all_numbers=False):
        if isinstance(node, dict):
            return {
                key: (
                    0
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and (all_numbers or key in _TIMING_KEYS)
                    # Curve points are Observation dumps: every number
                    # in them is a timing statistic.
                    else scrub(value, all_numbers or key == "curves")
                )
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [scrub(item, all_numbers) for item in node]
        return node

    return scrub(copy.deepcopy(payload))


def compare_to_baseline(
    payload: Dict[str, object],
    baseline: Dict[str, object],
    factor: float = 2.0,
) -> List[str]:
    """Regressions of *payload* vs *baseline* beyond *factor*.

    The CI gate: ingest throughput may not fall below ``1/factor`` of
    the baseline, and each mode's worst-case query p95 may not exceed
    ``factor`` times the baseline, for every tier/mode present in both.
    Both are probe-scaled: each tier's throughput is multiplied, and its
    p95 divided, by its ``probe_ms``, so a slower host moves both sides.
    A payload mode missing from a baseline tier is a problem too, and so
    is a tier without a probe time, so a stale baseline cannot turn the
    gate into a no-op.  Returns human-readable violation lines (empty
    means pass).
    """
    problems: List[str] = []
    base_tiers = {tier["tier"]: tier for tier in baseline.get("tiers", [])}
    for tier in payload.get("tiers", []):
        base = base_tiers.get(tier["tier"])
        if base is None:
            continue
        if not tier.get("probe_ms") or not base.get("probe_ms"):
            problems.append(f"{tier['tier']}: no probe time to scale by")
            continue
        slowdown = tier["probe_ms"] / base["probe_ms"]  # > 1: slower host
        rate = tier["ingest"]["objects_per_sec"] * slowdown
        base_rate = base["ingest"]["objects_per_sec"]
        if base_rate and rate < base_rate / factor:
            problems.append(
                f"{tier['tier']}: ingest {rate:,.0f} obj/s (probe-scaled) "
                f"is >{factor}x below baseline {base_rate:,.0f} obj/s"
            )
        base_modes = {
            (mode["plan"], mode["join_mode"]): mode
            for mode in base.get("modes", [])
        }
        for mode in tier.get("modes", []):
            where = (
                f"{tier['tier']} plan={mode['plan']} "
                f"join={mode['join_mode']}"
            )
            bmode = base_modes.get((mode["plan"], mode["join_mode"]))
            if bmode is None:
                problems.append(f"{where}: no baseline entry to compare")
                continue
            worst = mode["worst_p95_ms"] / slowdown
            base_worst = bmode["worst_p95_ms"]
            if base_worst and worst > base_worst * factor:
                problems.append(
                    f"{where}: worst p95 {worst:.3f}ms (probe-scaled) is "
                    f">{factor}x above baseline {base_worst}ms"
                )
    return problems


def render_report(payload: Dict[str, object]) -> str:
    """A readable table view of the artifact."""
    lines = [
        "scale harness: ingest throughput and query latency percentiles",
        f"seed={payload['seed']} rounds={payload['rounds']}",
    ]
    for tier in payload["tiers"]:
        ingest = tier["ingest"]
        lines.append(
            f"\n[{tier['tier']}] {ingest['objects']} objects ingested in "
            f"{ingest['seconds']}s ({ingest['objects_per_sec']:,.0f} obj/s)"
        )
        for mode in tier["modes"]:
            lines.append(
                f"  plan={mode['plan']:6s} join={mode['join_mode']:6s} "
                f"{mode['queries_per_sec']:8.1f} q/s  "
                f"worst p95 {mode['worst_p95_ms']:10.3f}ms"
                + (
                    f"  (skipped: {', '.join(mode['skipped'])})"
                    if mode["skipped"]
                    else ""
                )
            )
            for query in mode["queries"]:
                lines.append(
                    f"    {query['query']:4s} rows={query['rows']:7d} "
                    f"p50={query['p50_ms']:10.3f}ms "
                    f"p95={query['p95_ms']:10.3f}ms"
                )
    return "\n".join(lines)

