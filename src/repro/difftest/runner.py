"""The fuzz loop: generate, cross-check, shrink, persist, summarize.

:func:`run_fuzz` drives :class:`~repro.difftest.grammar.QueryGenerator`
against the :class:`~repro.difftest.oracle.Oracle` over one or more
Figure 1 workload sizes.  For every generated query it

1. asserts the render→parse round-trip (a generator bug otherwise);
2. runs the full engine matrix and tallies ok/skip/error per engine;
3. records the typing discipline (:func:`repro.typing.analysis.analyze`)
   the query lands in, as a cheap coverage signal for the grammar;
4. on disagreement, shrinks the query to a local minimum that still
   disagrees and saves it as a corpus case (when a corpus dir is given).

Determinism: query ``index`` under ``seed`` is always the same query, so
any report line can be replayed with ``--seed S --queries N`` alone.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import XsqlError
from repro.typing.analysis import analyze
from repro.workloads.generator import WORKLOAD_PRESETS, generate_database
from repro.workloads.scale import SCALE_TIERS, ScaleSpec, generate_scaled
from repro.xsql import ast
from repro.xsql.parser import parse_query

from repro.difftest.corpus import AnyWorkload, CorpusCase, save_case
from repro.difftest.grammar import GeneratorConfig, QueryGenerator, SchemaModel
from repro.difftest.oracle import Oracle
from repro.difftest.shrink import shrink_query

__all__ = ["FuzzStats", "run_fuzz"]

#: Workload sizes where the naive §3.4 oracle is allowed to run.
NAIVE_SIZES = ("tiny",)

#: Prefix selecting a seeded scale population instead of a preset:
#: ``scale-1k`` .. ``scale-1m`` (:data:`repro.workloads.scale.SCALE_TIERS`).
SCALE_PREFIX = "scale-"


def _workload_for_size(size: str, seed: int) -> AnyWorkload:
    """Resolve a size name to a preset config or a scale spec."""
    if size.startswith(SCALE_PREFIX):
        tier = size[len(SCALE_PREFIX):]
        if tier not in SCALE_TIERS:
            raise XsqlError(
                f"unknown scale tier {size!r}; choose from "
                + ", ".join(f"scale-{t}" for t in SCALE_TIERS)
            )
        return ScaleSpec(n_objects=SCALE_TIERS[tier], seed=seed)
    if size not in WORKLOAD_PRESETS:
        raise XsqlError(
            f"unknown workload size {size!r}; "
            f"choose from {sorted(WORKLOAD_PRESETS)} or scale-<tier>"
        )
    return WORKLOAD_PRESETS[size]


@dataclass
class FuzzStats:
    """Aggregated outcome of one fuzz run."""

    seed: int = 0
    queries: int = 0
    roundtrip_failures: List[str] = field(default_factory=list)
    engine_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    reference_errors: int = 0
    typing_disciplines: Dict[str, int] = field(default_factory=dict)
    disagreements: List[Dict] = field(default_factory=list)
    corpus_paths: List[Path] = field(default_factory=list)
    #: Per-size pipeline metrics report from the oracle's session
    #: (``python -m repro.difftest --stats`` prints these).
    pipeline_reports: Dict[str, str] = field(default_factory=dict)
    elapsed: float = 0.0

    def record_outcome(self, engine: str, status: str) -> None:
        per_engine = self.engine_counts.setdefault(
            engine, {"ok": 0, "skip": 0, "error": 0}
        )
        per_engine[status] = per_engine.get(status, 0) + 1

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.roundtrip_failures

    def skip_rate(self, engine: str) -> float:
        counts = self.engine_counts.get(engine)
        if not counts:
            return 0.0
        total = sum(counts.values())
        return counts.get("skip", 0) / total if total else 0.0

    def summary(self) -> str:
        lines = [
            f"difftest: seed={self.seed} queries={self.queries} "
            f"elapsed={self.elapsed:.1f}s"
        ]
        for engine, counts in self.engine_counts.items():
            total = sum(counts.values())
            rate = 100.0 * counts.get("skip", 0) / total if total else 0.0
            lines.append(
                f"  engine {engine:10s} ok={counts.get('ok', 0):5d} "
                f"skip={counts.get('skip', 0):5d} ({rate:4.1f}%) "
                f"error={counts.get('error', 0):3d}"
            )
        if self.typing_disciplines:
            spread = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.typing_disciplines.items())
            )
            lines.append(f"  typing: {spread}")
        if self.reference_errors:
            lines.append(
                f"  reference errors (uncomparable): {self.reference_errors}"
            )
        if self.roundtrip_failures:
            lines.append(
                f"  PARSE ROUND-TRIP FAILURES: {len(self.roundtrip_failures)}"
            )
            for text in self.roundtrip_failures[:5]:
                lines.append(f"    {text}")
        lines.append(f"  disagreements: {len(self.disagreements)}")
        for item in self.disagreements:
            lines.append(
                f"    [{item['size']} #{item['index']}] {item['query']}"
            )
            for reason in item["reasons"]:
                lines.append(f"      {reason}")
            if item.get("minimized") != item["query"]:
                lines.append(f"      minimized: {item['minimized']}")
        return "\n".join(lines)


def run_fuzz(
    seed: int = 0,
    queries: int = 500,
    sizes: Sequence[str] = ("tiny", "small"),
    config: Optional[GeneratorConfig] = None,
    corpus_dir: Optional[Path] = None,
    fail_fast: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzStats:
    """Fuzz *queries* seeded queries against each workload in *sizes*.

    The query budget is split evenly across sizes (remainder to the
    first), so ``queries=500`` means 500 oracle runs in total.
    """
    if config is None:
        config = GeneratorConfig()
    stats = FuzzStats(seed=seed)
    started = time.monotonic()

    share, remainder = divmod(queries, max(1, len(sizes)))
    for position, size in enumerate(sizes):
        workload = _workload_for_size(size, seed)
        budget = share + (remainder if position == 0 else 0)
        if budget <= 0:
            continue
        if isinstance(workload, ScaleSpec):
            store = generate_scaled(workload)
            # The merged-mode engines (reference, naive, flogic, ...)
            # are O(extent^|FROM|): a two-variable query over a scale
            # population cross-products the whole extents before any
            # conjunct can filter.  Single-FROM queries keep every
            # engine linear in the population, so the 10-engine matrix
            # stays comparable at 10^3-10^4 objects.
            size_config = dataclasses.replace(config, max_from=1)
        else:
            store = generate_database(workload)
            size_config = config
        oracle = Oracle(store, naive_enabled=size in NAIVE_SIZES)
        generator = QueryGenerator(
            SchemaModel.from_store(store), size_config, seed
        )
        if progress:
            progress(
                f"[{size}] store ready: "
                f"{store.individual_count()} individuals, "
                f"{budget} queries"
            )
        for index in range(budget):
            query = generator.generate(index)
            text = str(query)
            stats.queries += 1
            try:
                parsed = parse_query(text)
                if not isinstance(parsed, ast.Query):
                    raise XsqlError("reparsed to a non-Query statement")
                if str(parsed) != str(parse_query(str(parsed))):
                    raise XsqlError("render/parse did not reach a fixpoint")
            except XsqlError as exc:
                stats.roundtrip_failures.append(f"{text}  ({exc})")
                continue

            report = oracle.run(text)
            for name, outcome in report.outcomes.items():
                stats.record_outcome(name, outcome.status)
            if report.reference_failed:
                stats.reference_errors += 1
            _record_typing(stats, parsed, store)

            if report.disagreements:
                entry = _handle_disagreement(
                    stats, oracle, parsed, report.disagreements,
                    seed=seed, index=index, size=size,
                    workload=workload, corpus_dir=corpus_dir,
                )
                if progress:
                    progress(f"[{size} #{index}] DISAGREEMENT: {entry['query']}")
                if fail_fast:
                    stats.elapsed = time.monotonic() - started
                    return stats
            elif progress and (index + 1) % 100 == 0:
                progress(f"[{size}] {index + 1}/{budget} queries agree")
        stats.pipeline_reports[size] = oracle.session.metrics.summary()

    stats.elapsed = time.monotonic() - started
    return stats


def _record_typing(
    stats: FuzzStats, parsed: ast.Query, store
) -> None:
    try:
        discipline = analyze(parsed, store).discipline()
    except XsqlError:
        discipline = "analysis-error"
    stats.typing_disciplines[discipline] = (
        stats.typing_disciplines.get(discipline, 0) + 1
    )


def _handle_disagreement(
    stats: FuzzStats,
    oracle: Oracle,
    parsed: ast.Query,
    reasons: List[str],
    seed: int,
    index: int,
    size: str,
    workload: AnyWorkload,
    corpus_dir: Optional[Path],
) -> Dict:
    def still_disagrees(candidate: ast.Query) -> bool:
        return bool(oracle.run(candidate).disagreements)

    minimized = shrink_query(parsed, still_disagrees)
    final_reasons = oracle.run(minimized).disagreements or reasons
    entry = {
        "seed": seed,
        "index": index,
        "size": size,
        "query": str(parsed),
        "minimized": str(minimized),
        "reasons": final_reasons,
    }
    stats.disagreements.append(entry)
    if corpus_dir is not None:
        case = CorpusCase(
            description=final_reasons[0],
            query=str(minimized),
            workload=workload,
            found_by={
                "seed": seed,
                "index": index,
                "size": size,
                "original": str(parsed),
                "disagreements": final_reasons,
            },
        )
        entry["corpus_path"] = str(save_case(case, corpus_dir))
        stats.corpus_paths.append(Path(entry["corpus_path"]))
    return entry
