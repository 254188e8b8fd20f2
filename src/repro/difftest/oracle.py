"""The differential oracle: one query, every engine, one verdict.

The engine matrix is one table, :data:`ENGINES` (see also
``docs/DIFFTEST.md``).  Each row is an :class:`Engine`: a name, the
:class:`~repro.xsql.options.ExecutionOptions` it runs under, the session
scope it runs on (rows with one scope share a persistent
:class:`~repro.xsql.session.Session`, so its statement cache and walker
memo stay warm across a fuzz run), and an optional store transform that
scope's session runs over.  Only ``flogic``, ``cached`` and ``shape``
have their own runner; every other row is
``session.query(text, options=...)``.

{matrix}

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

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.datamodel.store import ObjectStore
from repro.errors import XsqlError
from repro.flogic import FlogicDatabase, TranslationUnsupported, evaluate, translate
from repro.oid import Atom, Oid, Value
from repro.xsql import ast
from repro.xsql.lexer import Token, literal_value, tokenize
from repro.xsql.options import ExecutionOptions
from repro.xsql.parser import parse_query
from repro.xsql.pipeline import statement_shape
from repro.xsql.result import QueryResult
from repro.xsql.session import Session

__all__ = [
    "ENGINES",
    "ENGINE_NAMES",
    "Engine",
    "EngineOutcome",
    "Oracle",
    "OracleReport",
    "shape_sibling",
    "wal_roundtrip",
]

Rows = FrozenSet[Tuple[Oid, ...]]


def wal_roundtrip(store: ObjectStore) -> ObjectStore:
    """The store after a full storage-engine crash-recovery cycle.

    Encodes the store into a WAL-backed engine, closes it, reopens the
    directory (which *is* recovery — every committed batch is replayed
    from the CRC-framed log), and decodes the recovered key ranges back
    into a store.
    """
    from repro.storage import LogStructuredEngine, decode_store, encode_store

    tmpdir = tempfile.mkdtemp(prefix="xsql-difftest-kv-")
    try:
        engine = LogStructuredEngine(tmpdir, sync="never")
        encode_store(store, engine)
        engine.close()
        recovered = LogStructuredEngine(tmpdir, sync="never")
        try:
            return decode_store(recovered)
        finally:
            recovered.close()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _spelling(token: Token) -> str:
    if token.kind == "KEYWORD":
        return token.raw or token.text
    if token.kind == "CLASSVAR":
        return "#" + token.text
    if token.kind == "METHODVAR":
        return '"' + token.text
    return token.text


def shape_sibling(text: str) -> str:
    """*text* with its literals swapped for fresh ones of the same shape.

    Each literal becomes a value of its kind (int, float, str) that the
    text does not contain, equal literals alike, so the sibling has the
    statement-cache shape of *text*
    (:func:`repro.xsql.pipeline.statement_shape`).  Tokens are joined by
    single spaces, which the lexer ignores.
    """
    tokens = tokenize(text)
    _shape, literals = statement_shape(tokens)
    taken = {(type(value), value) for value in literals}
    fresh: Dict[Tuple[type, object], str] = {}
    parts = []
    for token in tokens[:-1]:  # the EOF token spells nothing
        if token.kind not in ("NUMBER", "STRING"):
            parts.append(_spelling(token))
            continue
        value = literal_value(token)
        kind = type(value)
        if (kind, value) not in fresh:
            serial = 7001 + len(fresh)
            while True:
                candidate = {int: serial, float: serial + 0.5}.get(
                    kind, f"~{serial}"
                )
                if (kind, candidate) not in taken:
                    break
                serial += 1
            fresh[(kind, value)] = (
                f"'{candidate}'" if kind is str else str(candidate)
            )
        parts.append(fresh[(kind, value)])
    return " ".join(parts)


@dataclass(frozen=True)
class Engine:
    """One row of the oracle matrix."""

    name: str
    #: What the row runs under; ``None`` for the F-logic kernel, which
    #: runs outside the session.
    options: Optional[ExecutionOptions]
    doc: str
    #: Rows with the same scope share one session.
    scope: str = "main"
    #: The store the scope's session runs over, from the oracle's store.
    transform: Optional[Callable[[ObjectStore], ObjectStore]] = None
    #: An :class:`Oracle` method name, for the rows ``query`` cannot run.
    runner: Optional[str] = None


_Opts = ExecutionOptions

ENGINES: Tuple[Engine, ...] = (
    Engine("reference", _Opts(), "source-order operator tree, merged"),
    Engine(
        "cached", _Opts(plan="greedy"),
        "greedy-reordered WHERE, prepared once and run cold then warm",
        runner="_run_cached",
    ),
    Engine(
        "cost", _Opts(plan="cost", join_mode="nested"),
        "cost optimizer and index probes, merged",
    ),
    Engine(
        "hashjoin", _Opts(plan="cost"), "factored HashJoin/SemiJoin",
        scope="hash",
    ),
    Engine("operators", _Opts(plan="typed"), "Theorem 6.1 RestrictedScan"),
    Engine(
        "naive", _Opts(engine="naive"),
        "literal §3.4 enumeration, below the substitution cap",
    ),
    Engine(
        "flogic", None, "Theorem 3.1 F-logic kernel, conjunctive fragment",
        runner="_run_flogic",
    ),
    Engine(
        "shape", _Opts(plan="cost"),
        "served by rebinding literals into a same-shape compile",
        scope="shape", runner="_run_shape",
    ),
    Engine(
        "kv", _Opts(), "reference plan over the WAL-recovered store",
        scope="kv", transform=wal_roundtrip,
    ),
    Engine(
        "fused", _Opts(plan="cost", pointer_join="force"),
        "forced PointerJoin, a materialized view in the store",
        scope="fused",
    ),
)

ENGINE_NAMES = tuple(engine.name for engine in ENGINES)


def _describe(engine: Engine) -> str:
    if engine.options is None:
        return f"* ``{engine.name}`` (outside the session): {engine.doc}"
    knobs = " ".join(
        f"{key}={value}"
        for key, value in vars(engine.options).items()
        if key == "plan" or value != getattr(_Opts(), key)
    )
    return f"* ``{engine.name}`` ({knobs}; {engine.scope}): {engine.doc}"


if __doc__:
    __doc__ = __doc__.replace("{matrix}", "\n".join(map(_describe, ENGINES)))


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
    each scope's session — and with it the WAL round-trip — and the
    F-logic export are built once and cached.
    """

    #: The view the fused engine materializes over Figure 1 workloads.
    VIEW_STATEMENT = (
        "CREATE VIEW FusedCompanyCard AS SUBCLASS OF Object "
        "SIGNATURE CardName = String "
        "SELECT CardName = C.Name FROM Company C OID FUNCTION OF C"
    )

    def __init__(
        self,
        store: ObjectStore,
        naive_max_product: int = 20_000,
        naive_enabled: bool = True,
    ) -> None:
        self.store = store
        self.naive_max_product = naive_max_product
        self.naive_enabled = naive_enabled
        self._sessions: Dict[str, Session] = {}
        self._flogic_db: Optional[FlogicDatabase] = None
        self._universe_sizes: Optional[Dict[str, int]] = None
        # The fused scope keeps a materialized view registered, so every
        # query it runs also exercises lazy view maintenance.  The view's
        # objects are part of the shared store, so the enrichment happens
        # before any other scope or artifact (the WAL round-trip, the
        # F-logic export) reads it.  Skipped when the workload has no
        # ``Company`` class (scale populations with other schemas).
        if Atom("Company") in store.hierarchy:
            self.session_for("fused").query(self.VIEW_STATEMENT)

    @property
    def session(self) -> Session:
        """The main scope's session (its metrics feed ``--stats``)."""
        return self.session_for("main")

    def session_for(self, scope: str) -> Session:
        """The persistent session of one scope, built on first use."""
        session = self._sessions.get(scope)
        if session is None:
            engine = next(e for e in ENGINES if e.scope == scope)
            store = self.store
            if engine.transform is not None:
                store = engine.transform(store)
            session = self._sessions[scope] = Session(store)
        return session

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
        by_name = {engine.name: engine for engine in ENGINES}
        for name in engines:
            if name not in by_name:
                raise XsqlError(f"unknown oracle engine {name!r}")

        for name in engines:
            engine = by_name[name]
            skip_reason = self._skip_reason(name, parsed)
            if skip_reason is not None:
                report.outcomes[name] = EngineOutcome(
                    engine=name, status="skip", detail=skip_reason
                )
                continue
            try:
                if engine.runner is not None:
                    result = getattr(self, engine.runner)(engine, text, parsed)
                else:
                    result = self.session_for(engine.scope).query(
                        text, options=engine.options
                    )
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

    def _run_cached(
        self, engine: Engine, text: str, parsed: ast.Query
    ) -> QueryResult:
        """The pipeline-cache engine: prepare once, run twice.

        Exercises the LRU statement cache across the whole fuzz run (the
        scope's session is persistent, so repeated shapes hit) and
        checks that a :class:`~repro.xsql.pipeline.CompiledQuery` is
        genuinely re-runnable: the second run, answered from the walker
        memo the first one filled, must equal the first in rows and in
        enumeration order before the rows go to the cross-engine judge.
        """
        session = self.session_for(engine.scope)
        compiled = session.prepare(text, options=engine.options)
        first = compiled.run()
        second = compiled.run()
        if list(first) != list(second):
            raise XsqlError(
                "compiled query is not re-runnable: the warm run of one "
                "CompiledQuery disagrees with its cold run"
            )
        return first

    def _run_shape(
        self, engine: Engine, text: str, parsed: ast.Query
    ) -> QueryResult:
        """The shape-keyed cache engine: compiled by rebinding literals.

        A sibling of *text* (:func:`shape_sibling`) is prepared first on
        the scope's session, then *text* itself, which the statement
        cache must serve by rebinding its literals into the sibling's
        compilation; a text with literals that records no
        ``cache.rebind`` is an error.  The exception is a literal whose
        class memberships differ from its sibling's: such a text must
        compile fresh.
        """
        session = self.session_for(engine.scope)
        sibling = shape_sibling(text)
        session.prepare(sibling, options=engine.options)
        counters = session.metrics.counters
        rebinds = counters.get("cache.rebind", 0)
        compiled = session.prepare(text, options=engine.options)
        _shape, literals = statement_shape(tokenize(text))
        _shape, fresh = statement_shape(tokenize(sibling))
        direct = session.store.direct_classes_of
        expect_rebind = bool(literals) and all(
            direct(Value(old)) == direct(Value(new))
            for old, new in zip(literals, fresh)
        )
        if expect_rebind and counters.get("cache.rebind", 0) == rebinds:
            raise XsqlError(
                "statement cache compiled a same-shape text from scratch "
                f"instead of rebinding it (sibling: {sibling})"
            )
        return compiled.run()

    def _run_flogic(self, engine: Engine, text: str, parsed: ast.Query) -> Rows:
        if self._flogic_db is None:
            self._flogic_db = FlogicDatabase.from_store(self.store)
        return evaluate(self._flogic_db, translate(parsed))

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
