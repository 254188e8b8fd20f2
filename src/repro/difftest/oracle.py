"""The differential oracle: one query, every engine, one verdict.

Engine matrix (see ``docs/DIFFTEST.md``):

========== ============================================= ==================
engine     implementation                                runs when
========== ============================================= ==================
reference  ``Session.query(text, plan="none")``          always
optimized  ``Session.query(text, plan="greedy")``        always
cached     ``Session.prepare(text, plan="greedy")`` run  always
           twice through the LRU statement cache
cost       ``Session.query(text, plan="cost")`` — the    always
           statistics-driven optimizer with index
           probes (may auto-enable indexes), pinned to
           ``join_mode="nested"`` merged execution
           (every operator merges the whole state)
hashjoin   ``plan="cost"`` on a second session with      always
           ``join_mode="hash"``: the factored
           HashJoin/SemiJoin operator pipeline
operators  ``Session.query(text, plan="typed")`` — the   always
           Theorem 6.1 coherent plan lowered to
           RestrictedScan operator trees
           (:mod:`repro.xsql.operators`)
naive      :class:`~repro.xsql.evaluator.NaiveEvaluator` substitution space
                                                         below the cap
flogic     Theorem 3.1 translation + F-logic kernel      conjunctive
                                                         fragment only
columnar   ``plan="cost"`` with ``workers=2`` on its    always
           own session: morsel-parallel scans over a
           walker memo that persists across queries
kv         ``encode_store`` into a WAL-backed            always
           :class:`~repro.storage.wal.LogStructuredEngine`,
           close + reopen (a full WAL replay), then
           ``decode_store`` and the reference evaluator
           on the recovered store
fused      ``plan="cost"`` with ``pointer_join="force"`` always
           on its own session: every fusable equality
           conjunct becomes a PointerJoin (forward
           dereference / backward index probe), with a
           materialized view kept in the store so lazy
           view maintenance runs inside the query loop
========== ============================================= ==================

Results are compared as order-insensitive multisets of oid tuples.  XSQL
result relations are duplicate-free sets (§3.3), so the multiset
comparison is a frozenset comparison of rows; the oracle still goes
through :meth:`QueryResult.rows` so a future bag semantics only needs one
change here.  On top of the set comparison, engines that hand back a
:class:`~repro.xsql.result.QueryResult` must also *enumerate* their rows
identically (the Sequence contract: stable order independent of plan and
engine); an order mismatch on equal sets is a disagreement.

An engine ends in one of three states: ``ok`` (rows produced), ``skip``
(outside the engine's fragment — recorded, never a failure), or ``error``
(the engine raised).  A disagreement is an ``ok`` engine whose rows differ
from the reference, or an engine error while the reference succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.datamodel.store import ObjectStore
from repro.errors import XsqlError
from repro.flogic import FlogicDatabase, TranslationUnsupported, evaluate, translate
from repro.oid import Oid
from repro.xsql import ast
from repro.xsql.evaluator import Evaluator, NaiveEvaluator
from repro.xsql.parser import parse_query
from repro.xsql.result import QueryResult
from repro.xsql.session import Session

__all__ = ["EngineOutcome", "OracleReport", "Oracle", "ENGINE_NAMES"]

Rows = FrozenSet[Tuple[Oid, ...]]

ENGINE_NAMES = (
    "reference",
    "optimized",
    "cached",
    "cost",
    "hashjoin",
    "operators",
    "naive",
    "flogic",
    "columnar",
    "kv",
    "fused",
)


@dataclass
class EngineOutcome:
    """What one engine did with one query."""

    engine: str
    status: str  # 'ok' | 'skip' | 'error'
    rows: Optional[Rows] = None
    #: The rows as the engine *enumerated* them, for engines that return
    #: a QueryResult (None otherwise) — checked against the reference's
    #: enumeration to pin the Sequence ordering contract.
    ordered: Optional[Tuple[Tuple[Oid, ...], ...]] = None
    detail: str = ""


@dataclass
class OracleReport:
    """The oracle's verdict on one query."""

    text: str
    outcomes: Dict[str, EngineOutcome] = field(default_factory=dict)
    disagreements: List[str] = field(default_factory=list)

    @property
    def reference_failed(self) -> bool:
        ref = self.outcomes.get("reference")
        return ref is None or ref.status != "ok"

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        lines = [f"query: {self.text}"]
        for name, outcome in self.outcomes.items():
            size = "-" if outcome.rows is None else str(len(outcome.rows))
            lines.append(
                f"  {name:10s} {outcome.status:5s} rows={size} "
                f"{outcome.detail}"
            )
        for item in self.disagreements:
            lines.append(f"  DISAGREE: {item}")
        return "\n".join(lines)


class Oracle:
    """Runs queries over one store through every engine and compares.

    The store is treated as read-only (the fuzzer generates no updates);
    the F-logic export and the storage round-trip are computed once
    and cached.
    """

    def __init__(
        self,
        store: ObjectStore,
        naive_max_product: int = 20_000,
        naive_enabled: bool = True,
    ) -> None:
        self.store = store
        self.session = Session(store)
        # The "cost" engine stays the tuple-at-a-time nested-loop
        # executor; the "hashjoin" engine runs the same plans through the
        # set-at-a-time executor on its own session, so the two are
        # compared against each other (and everything else) every query.
        self.session.join_mode = "nested"
        self.hash_session = Session(store)
        # The "columnar" engine gets its own session too: its walker memo
        # and restriction-keyed PathWalker cache persist across queries,
        # so the fuzz run also exercises cross-query cache reuse.
        self.columnar_session = Session(store)
        # The "fused" engine forces pointer-join fusion and keeps a
        # materialized view registered on its session, so every query it
        # runs also exercises the lazy view-maintenance sync path.  The
        # enrichment happens before any cached artifact (flogic export,
        # kv round-trip) is built, so all engines see one store.
        self.fused_session = Session(store)
        self._enrich_with_view()
        self.naive_max_product = naive_max_product
        self.naive_enabled = naive_enabled
        self._flogic_db: Optional[FlogicDatabase] = None
        self._kv_store: Optional[ObjectStore] = None
        self._universe_sizes: Optional[Dict[str, int]] = None

    #: The view the fused engine materializes over Figure 1 workloads.
    VIEW_STATEMENT = (
        "CREATE VIEW FusedCompanyCard AS SUBCLASS OF Object "
        "SIGNATURE CardName = String "
        "SELECT CardName = C.Name FROM Company C OID FUNCTION OF C"
    )

    def _enrich_with_view(self) -> None:
        """Materialize a small view on the fused session's store.

        Skipped when the workload has no ``Company`` class (scale
        populations with other schemas).  The view's objects are part of
        the shared store, so every engine — including the WAL
        round-trip — must agree on queries that touch them.
        """
        from repro.oid import Atom

        if Atom("Company") not in self.store.hierarchy:
            return
        self.fused_session.query(self.VIEW_STATEMENT)

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------

    def _flogic(self) -> FlogicDatabase:
        if self._flogic_db is None:
            self._flogic_db = FlogicDatabase.from_store(self.store)
        return self._flogic_db

    def _kv_roundtrip(self) -> ObjectStore:
        """The store after a full storage-engine crash-recovery cycle.

        Encodes the store into a WAL-backed engine, closes it, reopens
        the directory (which *is* recovery — every committed batch is
        replayed from the CRC-framed log), and decodes the recovered
        key ranges back into a store.  Cached once, like the F-logic
        export.
        """
        if self._kv_store is None:
            import shutil
            import tempfile

            from repro.storage import LogStructuredEngine, decode_store, encode_store

            tmpdir = tempfile.mkdtemp(prefix="xsql-difftest-kv-")
            try:
                engine = LogStructuredEngine(tmpdir, sync="never")
                encode_store(self.store, engine)
                engine.close()
                recovered = LogStructuredEngine(tmpdir, sync="never")
                try:
                    self._kv_store = decode_store(recovered)
                finally:
                    recovered.close()
            finally:
                shutil.rmtree(tmpdir, ignore_errors=True)
        return self._kv_store

    def _universes(self) -> Dict[str, int]:
        if self._universe_sizes is None:
            self._universe_sizes = {
                "individual": self.store.individual_count(),
                "class": len(self.store.class_universe()),
                "method": len(self.store.method_universe()),
            }
        return self._universe_sizes

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------

    def run(
        self, query: Union[str, ast.Query], engines: Tuple[str, ...] = ENGINE_NAMES
    ) -> OracleReport:
        """Run *query* through the engine matrix and compare results."""
        if isinstance(query, str):
            text = query
            parsed = parse_query(text)
        else:
            parsed = query
            text = str(query)
        if not isinstance(parsed, ast.Query):
            raise XsqlError(
                "the oracle runs plain SELECT queries (no UNION chains)"
            )
        report = OracleReport(text=text)

        runners = {
            "reference": lambda: self.session.query(text, plan="none"),
            "optimized": lambda: self.session.query(text, plan="greedy"),
            "cached": lambda: self._run_cached(text),
            "cost": lambda: self.session.query(text, plan="cost"),
            "hashjoin": lambda: self.hash_session.query(text, plan="cost"),
            "operators": lambda: self.session.query(text, plan="typed"),
            "naive": lambda: NaiveEvaluator(self.store).run(parsed),
            "flogic": lambda: evaluate(self._flogic(), translate(parsed)),
            "columnar": lambda: self.columnar_session.query(
                text, plan="cost", workers=2
            ),
            "kv": lambda: Evaluator(self._kv_roundtrip()).run(parsed),
            "fused": lambda: self.fused_session.query(
                text, plan="cost", pointer_join="force"
            ),
        }
        for name in engines:
            if name not in runners:
                raise XsqlError(f"unknown oracle engine {name!r}")

        for name in engines:
            skip_reason = self._skip_reason(name, parsed)
            if skip_reason is not None:
                report.outcomes[name] = EngineOutcome(
                    engine=name, status="skip", detail=skip_reason
                )
                continue
            try:
                result = runners[name]()
            except TranslationUnsupported as exc:
                report.outcomes[name] = EngineOutcome(
                    engine=name, status="skip", detail=str(exc)
                )
            except XsqlError as exc:
                report.outcomes[name] = EngineOutcome(
                    engine=name,
                    status="error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            else:
                if isinstance(result, QueryResult):
                    rows: Rows = result.rows()
                    ordered = tuple(result)
                else:
                    rows = result
                    ordered = None
                report.outcomes[name] = EngineOutcome(
                    engine=name, status="ok", rows=rows, ordered=ordered
                )

        self._judge(report)
        return report

    def _run_cached(self, text: str) -> QueryResult:
        """The pipeline-cache engine: prepare once, run twice.

        Exercises the LRU statement cache across the whole fuzz run (the
        oracle's session is persistent, so repeated shapes hit) and
        checks that a :class:`~repro.xsql.pipeline.CompiledQuery` is
        genuinely re-runnable: both executions must agree before the rows
        are handed to the cross-engine judge.
        """
        compiled = self.session.prepare(text, plan="greedy")
        first = compiled.run()
        second = compiled.run()
        if first.rows() != second.rows():
            raise XsqlError(
                "compiled query is not re-runnable: two executions of one "
                "CompiledQuery disagree"
            )
        return first

    def _skip_reason(self, engine: str, parsed: ast.Query) -> Optional[str]:
        if engine != "naive":
            return None
        if not self.naive_enabled:
            return "naive oracle disabled for this store size"
        sizes = self._universes()
        product = 1
        for var in dict.fromkeys(ast.free_variables(parsed)):
            product *= max(1, sizes.get(var.sort.value, sizes["individual"]))
            if product > self.naive_max_product:
                return (
                    f"substitution space exceeds cap "
                    f"({product} > {self.naive_max_product})"
                )
        return None

    def _judge(self, report: OracleReport) -> None:
        reference = report.outcomes.get("reference")
        if reference is None:
            return
        if reference.status != "ok":
            # Nothing to compare against; the runner tracks these.
            return
        assert reference.rows is not None
        for name, outcome in report.outcomes.items():
            if name == "reference":
                continue
            if outcome.status == "error":
                report.disagreements.append(
                    f"{name} errored while reference succeeded: "
                    f"{outcome.detail}"
                )
            elif outcome.status == "ok" and outcome.rows != reference.rows:
                assert outcome.rows is not None
                missing = len(reference.rows - outcome.rows)
                extra = len(outcome.rows - reference.rows)
                report.disagreements.append(
                    f"{name} rows differ from reference "
                    f"(missing {missing}, extra {extra})"
                )
            elif (
                outcome.status == "ok"
                and outcome.ordered is not None
                and reference.ordered is not None
                and outcome.ordered != reference.ordered
            ):
                report.disagreements.append(
                    f"{name} enumerates equal rows in a different order "
                    f"than reference (Sequence contract violated)"
                )
