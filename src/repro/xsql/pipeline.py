"""The staged query pipeline: parse → normalize → analyze → plan → execute.

Before this module, every ``Session.query()`` re-parsed, re-typed, and
re-planned its text from scratch.  The pipeline reifies compilation as a
first-class :class:`CompiledQuery` — cheap to re-run, inspectable via
:meth:`CompiledQuery.explain` — and memoizes it in an LRU statement cache
so repeated-query workloads pay the front half of the pipeline once.

Stages (each timed into :class:`repro.metrics.SessionMetrics`):

1. **parse** — tokenize + recursive descent (store-independent); the
   shape lookup of the statement cache sits between the two;
2. **normalize** — variable-sort unification and §5 desugaring;
3. **analyze** — the §6.2 typing spectrum (only under ``plan="typed"``,
   or lazily for ``explain()``);
4. **plan** — conjunct reordering: the untyped greedy boundness planner
   (``plan="greedy"``), the Theorem 6.1 coherent plan (``plan="typed"``,
   falling back to greedy when the query is not strictly well-typed), or
   the cost-based optimizer (``plan="cost"`` — statistics-driven join
   order and access paths, :mod:`repro.xsql.costplan`); after a shape
   hit this stage also binds the text's literals into the cached
   statement;
5. **execute** — the planned statement is *lowered* to a physical
   operator tree (:mod:`repro.xsql.operators`) and run through the one
   executor every ``plan=``/``engine=``/``join_mode`` combination
   shares: Theorem 6.1 extent restrictions become ``RestrictedScan``
   inputs under ``plan="typed"``/``"cost"``, inverted-index probes
   narrow scans further under ``plan="cost"``, and hash-joinable
   conjuncts become ``HashJoin``/``SemiJoin`` operators under
   ``join_mode="hash"``.  The instrumented tree of the latest run is
   kept on the compiled statement for ``explain(analyze=True)``.

Cache soundness: entries are keyed on the statement's *shape*
(:func:`statement_shape`) plus ``options.cache_key()`` (the frozen
:class:`~repro.xsql.options.ExecutionOptions` tuple), and stamped with
the store's published :class:`~repro.datamodel.store.Schema` value.  The
shape is the token stream with each number or string literal replaced
by its kind (``int``, ``float``, ``str``) and the equality pattern of
the literals; keywords (``true``, ``false``, ``nil``), names, variables
and oids stay verbatim.  By §6 the type assignment, the coherent plan
and the Theorem 6.1 ranges depend on types, not on constants, so a text
whose shape is cached reuses that compilation: the exact text gets the
cached object back, and any other text of the shape gets a new
:class:`CompiledQuery` that shares the typing report and range classes,
carries the cached normalized statement with its own literals bound in,
and re-runs only the plan stage (cost estimates and index probes read
literal values, so its cost plan is that of a fresh compile).  A literal
whose direct class memberships differ from those of the literal it would
replace compiles fresh, because §6 validity reads ``is_instance`` on
ground terms.  The exact texts of the cached entries are indexed, so an
exact hit costs one dictionary lookup; any other text is lexed once
(timed as ``parse``) to find its shape, and a miss parses those same
tokens.

A compiled statement goes stale only when the store publishes another
schema value (DDL, or a store swap) — plain data updates and index
toggles do not recompile; the one data-dependent artifact — the
extent-restriction sets of Theorem 6.1 — is recomputed on every
execution, and cost plans re-rank when the store's mutation ticket has
moved.  Replacing the store (``Session.restore``) clears the cache
outright.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.oid import Scalar, Value
from repro.xsql import ast, operators
from repro.xsql.lexer import Token, literal_value, tokenize
from repro.xsql.normalize import map_terms
from repro.xsql.options import ENGINES, PLAN_MODES, ExecutionOptions
from repro.xsql.parser import (
    normalize_statement,
    parse_statement_raw,
    parse_tokens,
)
from repro.xsql.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datamodel.store import Schema
    from repro.oid import Atom, Variable
    from repro.typing.analysis import TypingReport
    from repro.xsql.costplan import CostPlan
    from repro.xsql.session import Session

# PLAN_MODES and ENGINES moved to repro.xsql.options (the canonical
# home); re-exported here for the REPL and existing imports.
__all__ = [
    "CompiledQuery",
    "QueryPipeline",
    "statement_shape",
    "PLAN_MODES",
    "ENGINES",
]


def statement_shape(
    tokens: List[Token],
) -> Tuple[Tuple[object, ...], Tuple[Scalar, ...]]:
    """The statement-cache shape of a lexed statement, and its literals.

    Every token but a literal enters the shape as its kind and text, so
    keywords (``true``, ``false``, ``nil``), names and variables stay
    verbatim.  A ``NUMBER``/``STRING`` token enters as its literal kind
    (``int``, ``float`` or ``str``) and the index of the first literal
    equal to it, so the shape also fixes which literals are equal.  The
    literals come back in token order.
    """
    shape: List[object] = []
    literals: List[Scalar] = []
    first: Dict[Tuple[type, Scalar], int] = {}
    for token in tokens:
        kind = token.kind
        if kind == "NUMBER" or kind == "STRING":
            value = literal_value(token)
            shape.append(type(value))
            kind_value = (type(value), value)
            shape.append(first.setdefault(kind_value, len(literals)))
            literals.append(value)
        else:
            shape.append(kind)
            shape.append(token.text)
    return tuple(shape), tuple(literals)


@dataclass
class CompiledQuery:
    """One statement, compiled through the pipeline and re-runnable.

    Obtained from :meth:`repro.xsql.session.Session.prepare`; re-running
    skips parse/normalize/analyze/plan entirely (they are refreshed
    transparently once DDL has published another schema value).
    """

    session: "Session"
    source: str
    #: The frozen execution options this compilation is keyed on.
    options: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: The normalized statement (post sort-unification and desugaring).
    statement: ast.Statement = field(repr=False, default=None)  # type: ignore[assignment]
    #: The statement with its WHERE conjunction reordered by the planner.
    planned: ast.Statement = field(repr=False, default=None)  # type: ignore[assignment]
    #: §6.2 typing report; computed under ``plan="typed"``/``"cost"`` or
    #: lazily by explain().
    report: Optional["TypingReport"] = field(repr=False, default=None)
    #: Theorem 6.1 range classes per variable (``range_classes`` of
    #: :mod:`repro.typing.optimizer`), set with ``report`` when the query
    #: is strictly well-typed; schema-only, so kept until recompilation.
    range_classes: Optional[Dict["Variable", List["Atom"]]] = field(
        repr=False, default=None
    )
    #: The cost-based artifact (join order, access paths, probes);
    #: computed under ``plan="cost"``, or lazily (advisory, no index
    #: auto-enabling) by :meth:`access_paths` / :meth:`explain`.
    cost_plan: Optional["CostPlan"] = field(repr=False, default=None)
    #: Actual binding counts per plan entry from the most recent run
    #: under ``plan="cost"`` (None before the first run).
    last_trace: Optional[List[int]] = field(repr=False, default=None)
    #: Instrumented snapshot (:func:`repro.xsql.operators.tree_dict`) of
    #: the physical-operator tree from the most recent run (None before
    #: the first run and for dispatched DDL/creation statements).
    last_optree: Optional[Dict[str, object]] = field(
        repr=False, default=None
    )
    #: The schema value this compile read; the statement is stale once
    #: the store publishes another (DDL recompiles, data writes do not).
    schema: Optional["Schema"] = field(repr=False, default=None)
    #: The source's NUMBER/STRING literals in token order (see
    #: :func:`statement_shape`).
    literals: Tuple[Scalar, ...] = field(repr=False, default=())
    #: The step programs lowered from ``planned`` (comparisons and SELECT
    #: items, :mod:`repro.xsql.programs`), by node; every run's lowering
    #: reads them here instead of lowering again.
    programs: Dict[object, object] = field(repr=False, default_factory=dict)
    #: True while ``report`` is the typing report of the cached statement
    #: this one was rebound from: right for planning, but its occurrences
    #: print that statement's literals, so explain() re-analyzes.
    _report_borrowed: bool = field(repr=False, default=False)

    # ------------------------------------------------------------------

    def run(self) -> QueryResult:
        """Execute against the session's *current* database state."""
        return self.session.pipeline.execute(self)

    __call__ = run

    # Convenience views over the frozen options record (the historical
    # ``compiled.plan`` / ``compiled.engine`` attributes).

    @property
    def plan(self) -> str:
        return self.options.plan

    @property
    def engine(self) -> str:
        return self.options.engine

    @property
    def join_mode(self) -> str:
        return self.options.join_mode

    @property
    def is_stale(self) -> bool:
        """Has DDL (or a store swap) outdated the compiled artifacts?"""
        return self.schema is not self.session.store.schema

    @property
    def discipline(self) -> Optional[str]:
        """The §6.2 typing discipline, when analysis has run."""
        return self.report.discipline() if self.report is not None else None

    # ------------------------------------------------------------------

    def access_paths(self) -> List[Dict[str, object]]:
        """The per-entry access paths of the (possibly advisory) cost plan.

        Under ``plan="cost"`` this is the plan the executor uses.  Under
        any other plan mode an *advisory* plan is computed on demand —
        with ``index_mode="manual"`` so inspecting a query never enables
        an index as a side effect.
        """
        plan = self.session.pipeline.ensure_cost_plan(self)
        if plan is None:
            return []
        return [entry.as_dict() for entry in plan.entries]

    def explain(
        self,
        format: str = "text",
        analyze: bool = False,
        options: Optional[ExecutionOptions] = None,
    ) -> str:
        """An account of typing, join order, access paths, and estimates.

        Passing ``options=ExecutionOptions(...)`` explains (and, with
        ``analyze=True``, runs) the same source under *those* options —
        a fresh compilation through the session's pipeline — without
        touching this compiled statement.

        ``format="text"`` renders the human-readable multi-line report:
        the parsed form, the §6.2 discipline with the witnessing
        assignment and coherent plan (when one exists), the per-variable
        Theorem 6.1 instantiation-set sizes, the cost plan's join order
        and access paths with estimated (and, after a ``plan="cost"``
        run, actual) cardinalities, and the pipeline configuration.
        ``format="json"`` returns the same facts as a JSON object for
        tooling.

        ``analyze=True`` — EXPLAIN ANALYZE — *executes* the query and
        appends the instrumented physical-operator tree: per-operator
        estimated vs actual rows, input rows, batches, path-cache hits,
        and wall time.  Only plain (relation-producing) queries can be
        analyzed; WHERE clauses containing updates do apply their side
        effects, exactly as a normal run would.
        """
        if format not in ("text", "json"):
            raise QueryError(
                f"unknown explain format {format!r}; choose text or json"
            )
        if options is not None and options != self.options:
            return self.session.prepare(
                self.source, options=options
            ).explain(format=format, analyze=analyze)
        if analyze:
            statement = self.statement
            if not isinstance(statement, (ast.Query, ast.QueryOp)) or (
                isinstance(statement, ast.Query)
                and statement.creates_objects
            ):
                raise QueryError(
                    "explain(analyze=True) executes the statement; only "
                    "plain queries are supported"
                )
            self.run()
        data = self._explain_data(analyze=analyze)
        if format == "json":
            return json.dumps(data, indent=2, sort_keys=True)
        return self._render_text(data)

    def _explain_data(self, analyze: bool = False) -> Dict[str, object]:
        self.session.pipeline.ensure_report(self)
        statement = self.statement
        data: Dict[str, object] = {
            "pipeline": {
                "plan": self.plan,
                "engine": self.engine,
                "join_mode": self.join_mode,
                "pointer_join": self.options.pointer_join,
            },
        }
        if not isinstance(statement, ast.Query):
            data["kind"] = "statement"
            data["statement"] = str(statement)
            # UNION chains still execute through the operator tree
            # (a SetOp root), so EXPLAIN ANALYZE can report on them.
            if analyze and self.last_optree is not None:
                data["operators"] = self.last_optree
            return data
        data["kind"] = "query"
        data["statement"] = str(statement)
        report = self.report
        assert report is not None
        data["typing"] = report.discipline()
        if report.strict_witness is not None:
            assignment, plan = report.strict_witness
            data["coherent_plan"] = str(plan)
            data["assignment"] = [
                {"occurrence": str(occ), "type": str(expr)}
                for occ, expr in assignment.entries
            ]
            from repro.typing.optimizer import extent_restrictions

            restrictions = extent_restrictions(
                self.session.store, self.range_classes or {}, statement
            )
            data["restrictions"] = {
                str(var): len(allowed)
                for var, allowed in sorted(
                    restrictions.items(), key=lambda kv: kv[0].name
                )
            }
        elif report.unsupported_reason:
            data["note"] = report.unsupported_reason
        cost_plan = self.session.pipeline.ensure_cost_plan(self)
        if cost_plan is not None:
            cost = cost_plan.as_dict()
            if self.plan != "cost":
                cost["advisory"] = True
            trace = self.last_trace
            if trace is not None:
                entries = cost["entries"]
                # A pointer-fused FROM entry has no pipeline stage of its
                # own (the PointerJoin binds its variable), so the trace
                # aligns with the remaining entries only.
                fused_skipped = self.join_mode == "hash"
                position = 0
                for entry in entries:
                    if (
                        fused_skipped
                        and entry.get("access_path") == "pointer-fused"
                    ):
                        continue
                    if position < len(trace):
                        entry["actual_rows"] = trace[position]
                    position += 1
            data["cost"] = cost
        if analyze and self.last_optree is not None:
            data["operators"] = self.last_optree
        return data

    @staticmethod
    def _render_text(data: Dict[str, object]) -> str:
        if data["kind"] == "statement":
            lines = [f"statement: {data['statement']}"]
            tree = data.get("operators")
            if tree:
                lines.append("physical operators:")
                lines.extend(
                    "  " + line
                    for line in operators.render_tree(tree)  # type: ignore[arg-type]
                )
            return "\n".join(lines)
        lines = [f"query: {data['statement']}"]
        lines.append(f"typing: {data['typing']}")
        if "coherent_plan" in data:
            lines.append(f"coherent plan: {data['coherent_plan']}")
            for entry in data["assignment"]:  # type: ignore[union-attr]
                lines.append(
                    f"  {entry['occurrence']} : {entry['type']}"
                )
            for var, size in data.get("restrictions", {}).items():  # type: ignore[union-attr]
                lines.append(f"  instantiations of {var}: {size} oid(s)")
        elif "note" in data:
            lines.append(f"note: {data['note']}")
        cost = data.get("cost")
        if cost:
            suffix = " (advisory)" if cost.get("advisory") else ""
            lines.append(
                f"join order & access paths{suffix}: "
                f"search={cost['search']}"
            )
            for entry in cost["entries"]:
                actual = entry.get("actual_rows")
                act = f" act={actual}" if actual is not None else ""
                strategy = entry.get("join_strategy")
                join = f" join={strategy}" if strategy else ""
                lines.append(
                    f"  {entry['label']:<44s} {entry['access_path']:<16s} "
                    f"est={entry['estimated_rows']:g}{act}{join}"
                )
            if cost["probes"]:
                lines.append(
                    "  probes: " + ", ".join(cost["probes"])
                )
            if cost["auto_enabled_indexes"]:
                lines.append(
                    "  auto-enabled indexes: "
                    + ", ".join(cost["auto_enabled_indexes"])
                )
        tree = data.get("operators")
        if tree:
            lines.append("physical operators:")
            lines.extend(
                "  " + line
                for line in operators.render_tree(tree)  # type: ignore[arg-type]
            )
        pipeline = data["pipeline"]
        lines.append(
            f"pipeline: plan={pipeline['plan']} "  # type: ignore[index]
            f"engine={pipeline['engine']} "  # type: ignore[index]
            f"join_mode={pipeline['join_mode']} "  # type: ignore[index]
            f"pointer_join={pipeline['pointer_join']}"  # type: ignore[index]
        )
        return "\n".join(lines)


class QueryPipeline:
    """Owns the staged compiler and the LRU statement cache of a session."""

    def __init__(self, session: "Session", cache_size: int = 128) -> None:
        self.session = session
        self.cache_size = max(0, cache_size)
        #: Shape key -> compilation, least recently used first.
        self._cache: "OrderedDict[Tuple, CompiledQuery]" = OrderedDict()
        #: (source,) + options key -> shape key, for each cached entry:
        #: the exact text of an entry is found without lexing it.
        self._texts: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------

    def compile(
        self, source: str, *, options: ExecutionOptions
    ) -> CompiledQuery:
        """Compile *source*, reusing a cached compilation when sound.

        *options* is already validated (``Session.prepare``/``query``
        coerce their keyword aliases into it).  The cache is keyed on
        the statement's shape: the exact text of an entry returns the
        cached compilation without being lexed, another text of the same
        shape rebinds its literals into it (:meth:`_rebind`), and
        anything else compiles from the tokens already lexed.
        """
        metrics = self.session.metrics
        options_key = options.cache_key()
        key = self._texts.get((source,) + options_key)
        if key is not None:
            cached = self._cache[key]
            self._cache.move_to_end(key)
            if cached.is_stale:
                metrics.count("cache.invalidated")
                metrics.note_last("cache", "invalidated")
                self._build(cached)
            else:
                metrics.count("cache.hit")
                metrics.note_last("cache", "hit")
            return cached
        with metrics.time("parse"):
            tokens = tokenize(source)
            shape, literals = statement_shape(tokens)
            key = shape + options_key
            cached = self._cache.get(key)
            rebind = cached is not None and self._rebindable(cached, literals)
            raw = None if rebind else parse_tokens(tokens)
        if rebind:
            assert cached is not None
            self._cache.move_to_end(key)
            metrics.count("cache.hit")
            metrics.count("cache.rebind")
            metrics.note_last("cache", "rebind")
            return self._rebind(cached, source, literals)
        # A stale entry of this shape is replaced; one whose literals
        # differ in class membership stays, and this text runs uncached.
        store_it = cached is None or cached.is_stale
        outcome = "invalidated" if cached is not None and store_it else "miss"
        metrics.count(f"cache.{outcome}")
        metrics.note_last("cache", outcome)
        compiled = CompiledQuery(
            session=self.session,
            source=source,
            options=options,
            literals=literals,
        )
        self._build(compiled, raw)
        if self.cache_size and store_it:
            if cached is not None:
                del self._texts[(cached.source,) + options_key]
            self._cache[key] = compiled
            self._cache.move_to_end(key)
            self._texts[(source,) + options_key] = key
            while len(self._cache) > self.cache_size:
                _key, evicted = self._cache.popitem(last=False)
                del self._texts[
                    (evicted.source,) + evicted.options.cache_key()
                ]
                metrics.count("cache.evicted")
        return compiled

    def _rebindable(
        self, cached: CompiledQuery, literals: Tuple[Scalar, ...]
    ) -> bool:
        """May *literals* be rebound into *cached*, a same-shape entry?

        Only while the entry is fresh, and only when each new literal has
        the direct classes (``store.direct_classes_of``) of the literal it
        replaces: §6 validity reads ``is_instance`` on ground terms, and a
        literal may carry explicit memberships.  The implicit classes
        follow from the literal kind, which the shape fixes, so the
        explicit memberships are what is compared.
        """
        if cached.is_stale:
            return False
        explicit = self.session.store.explicit_classes_of
        return all(
            old == new or explicit(Value(old)) == explicit(Value(new))
            for old, new in zip(cached.literals, literals)
        )

    def _rebind(
        self,
        template: CompiledQuery,
        source: str,
        literals: Tuple[Scalar, ...],
    ) -> CompiledQuery:
        """A new compilation of *source* from a same-shape *template*.

        Parse, normalization and typing depend on the shape alone, so
        they are skipped: the template's schema-only artifacts (typing
        report, range classes) are shared, and only the plan stage runs.
        It binds the new literals into the template's normalized
        statement, then re-plans, because cost estimates and index
        probes read literal values.  *template* is left untouched:
        prepared handles of one shape run side by side.
        """
        metrics = self.session.metrics
        # Keyed by (type, value): Value(1) == Value(True) == Value(1.0).
        # The shape's equality pattern makes the mapping one-to-one.
        swap = {
            (type(old), old): Value(new)
            for old, new in zip(template.literals, literals)
        }

        def rebind(term):
            if type(term) is Value:
                return swap.get((type(term.value), term.value), term)
            return term

        with metrics.time("plan"):
            compiled = CompiledQuery(
                session=self.session,
                source=source,
                options=template.options,
                statement=map_terms(template.statement, rebind),
                report=template.report,
                range_classes=template.range_classes,
                schema=template.schema,
                literals=literals,
                _report_borrowed=template.report is not None,
            )
            compiled.planned = self._plan_statement(compiled)
        return compiled

    def _build(
        self, compiled: CompiledQuery, raw: Optional[ast.Statement] = None
    ) -> None:
        """Run the compile-time stages, filling *compiled* in place.

        *raw* is the parsed statement when the caller has parsed it
        already; otherwise the source is parsed here.
        """
        metrics = self.session.metrics
        store = self.session.store
        compiled.schema = store.schema
        if raw is None:
            with metrics.time("parse"):
                raw = parse_statement_raw(compiled.source)
        with metrics.time("normalize"):
            statement = normalize_statement(raw)
        compiled.statement = statement
        compiled.report = None
        compiled._report_borrowed = False
        compiled.range_classes = None
        compiled.cost_plan = None
        compiled.last_trace = None
        compiled.last_optree = None
        compiled.programs = {}
        if compiled.plan in ("typed", "cost") and isinstance(
            statement, ast.Query
        ):
            with metrics.time("analyze"):
                from repro.typing.analysis import analyze

                compiled.report = analyze(statement, store)
                self._attach_range_classes(compiled)
        with metrics.time("plan"):
            compiled.planned = self._plan_statement(compiled)

    def _plan_statement(self, compiled: CompiledQuery) -> ast.Statement:
        statement = compiled.statement
        if (
            compiled.plan == "none"
            or not isinstance(statement, ast.Query)
            or statement.creates_objects
        ):
            return statement
        report = compiled.report
        if (
            compiled.plan == "typed"
            and report is not None
            and report.strict_witness is not None
        ):
            from repro.typing.optimizer import reorder

            _assignment, exec_plan = report.strict_witness
            assert report.typed_query is not None
            return reorder(statement, report.typed_query, exec_plan)
        if compiled.plan == "cost":
            planned = self._plan_cost(compiled)
            if planned is not None:
                return planned
            self.session.metrics.count("plan.cost.fallback")
        if compiled.plan == "typed":
            # Outside the strictly well-typed fragment Theorem 6.1 does
            # not apply; fall back to the untyped boundness planner.
            self.session.metrics.count("plan.typed.fallback")
        from repro.xsql.planner import GreedyPlanner

        return GreedyPlanner().reorder(statement)

    def _plan_cost(
        self, compiled: CompiledQuery
    ) -> Optional[ast.Statement]:
        """Build the cost plan, or None when the query is out of scope."""
        from repro.xsql.costplan import CostPlanner

        statement = compiled.statement
        assert isinstance(statement, ast.Query)
        planner = CostPlanner(
            self.session.store,
            index_mode=self.session.index_mode,
            pointer_mode=compiled.options.pointer_join,
        )
        if not planner.applicable(statement):
            return None
        cost_plan = planner.plan(
            statement, range_classes=compiled.range_classes
        )
        compiled.cost_plan = cost_plan
        return planner.apply(statement, cost_plan)

    def _attach_range_classes(self, compiled: CompiledQuery) -> None:
        """Store the Theorem 6.1 range classes, when strictly well-typed.

        Computed once per compilation: ranges depend only on the schema,
        and a schema change recompiles the entry.
        """
        report = compiled.report
        if report is None or report.strict_witness is None:
            return
        assert report.typed_query is not None
        from repro.typing.optimizer import range_classes

        assignment, _plan = report.strict_witness
        compiled.range_classes = (
            range_classes(self.session.store, assignment, report.typed_query)
            or None
        )

    def ensure_report(self, compiled: CompiledQuery) -> None:
        """Lazily attach the statement's own typing report (``explain``
        needs it; a rebound statement's borrowed report is replaced)."""
        if compiled.is_stale:
            self.session.metrics.count("cache.invalidated")
            self._build(compiled)
        if (
            compiled.report is None or compiled._report_borrowed
        ) and isinstance(compiled.statement, ast.Query):
            with self.session.metrics.time("analyze"):
                from repro.typing.analysis import analyze

                compiled.report = analyze(
                    compiled.statement, self.session.store
                )
                compiled._report_borrowed = False
                self._attach_range_classes(compiled)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, compiled: CompiledQuery) -> QueryResult:
        """Run a compiled statement against the current database state."""
        metrics = self.session.metrics
        # Lazy view maintenance: bring stale materialized views up to
        # date before any statement reads (or further mutates) the store.
        self.session.sync_views()
        if compiled.is_stale:
            metrics.count("cache.invalidated")
            metrics.note_last("cache", "invalidated")
            self._build(compiled)
        metrics.count("statements")
        with metrics.time("execute"):
            result = self._run(compiled)
        if isinstance(result, QueryResult):
            metrics.observe("rows", len(result))
            metrics.note_last("rows", len(result))
        return result

    def _run(self, compiled: CompiledQuery) -> QueryResult:
        """Lower the planned statement to operators and execute the tree.

        Every ``plan=``/``engine=``/``join_mode`` combination flows
        through here: the modes differ only in the *lowering inputs*
        (restrictions, probe sets, cost-plan entries, factored or merged
        batches), never in the executor.
        """
        session = self.session
        statement = compiled.statement
        if compiled.engine == "naive":
            if not isinstance(statement, ast.Query):
                raise QueryError("the naive oracle runs plain queries only")
            from repro.xsql.evaluator import NaiveEvaluator

            root = operators.NestedLoop(
                statement=statement,
                detail="engine=naive: literal §3.4 enumeration",
            )
            naive = NaiveEvaluator(
                session.store,
                id_function_instances=session.registry.instances,
            )
            result = operators.execute(root, naive, session.metrics)
            compiled.last_optree = operators.tree_dict(root)
            return result
        if not isinstance(statement, (ast.Query, ast.QueryOp)) or (
            isinstance(statement, ast.Query) and statement.creates_objects
        ):
            return session._dispatch(statement)
        restrictions, spec, cost_plan = self._lowering_inputs(compiled)
        # Every run shares the session-persistent walker, so its
        # ticket-stamped memo survives across runs of any statement.
        evaluator = session.evaluator(restrictions or None)
        root = operators.lower_statement(compiled.planned, spec)
        result = operators.execute(root, evaluator, session.metrics)
        compiled.last_optree = operators.tree_dict(root)
        if cost_plan is not None:
            trace = operators.stage_trace(root)
            compiled.last_trace = trace
            actual = trace[-1] if trace else len(result)
            estimated = cost_plan.estimated_result_rows
            session.metrics.observe(
                "cost.estimation_error",
                abs(estimated - actual) / max(actual, 1),
            )
        return result

    def _lowering_inputs(
        self, compiled: CompiledQuery
    ) -> Tuple[Dict, "operators.LowerSpec", Optional["CostPlan"]]:
        """The data-dependent half of the plan, rebuilt on every run.

        Conjunct order and access-path choices were fixed at compile
        time; the per-variable instantiation sets (Theorem 6.1) and
        inverted-index probe results depend on the data, so they are
        recomputed here and handed to the lowering as scan restrictions.
        """
        session = self.session
        statement = compiled.statement
        if (
            compiled.plan == "cost"
            and isinstance(statement, ast.Query)
            and compiled.cost_plan is not None
        ):
            cost_plan = self._refresh_cost_plan(compiled)
            restrictions, probe_vars = self._cost_restrictions(
                compiled, cost_plan
            )
            spec = operators.LowerSpec(
                factored=compiled.join_mode == "hash",
                restrictions=restrictions,
                probe_vars=probe_vars,
                entries=cost_plan.entries,
                programs=compiled.programs,
            )
            return restrictions, spec, cost_plan
        if (
            compiled.plan == "typed"
            and isinstance(statement, ast.Query)
            and compiled.report is not None
            and compiled.report.strict_witness is not None
        ):
            restrictions = self._typed_restrictions(compiled)
            spec = operators.LowerSpec(
                restrictions=restrictions, programs=compiled.programs
            )
            return restrictions, spec, None
        return {}, operators.LowerSpec(programs=compiled.programs), None

    def _typed_restrictions(self, compiled: CompiledQuery) -> Dict:
        """Theorem 6.1 instantiation sets for a strictly well-typed query."""
        from repro.typing.optimizer import extent_restrictions

        session = self.session
        assert isinstance(compiled.statement, ast.Query)
        restrictions = extent_restrictions(
            session.store, compiled.range_classes or {}, compiled.statement
        )
        for allowed in restrictions.values():
            session.metrics.observe("restriction", len(allowed))
        return dict(restrictions)

    def _refresh_cost_plan(self, compiled: CompiledQuery) -> "CostPlan":
        """Re-plan cheaply when the store has moved since costing.

        After writes (or an index toggle) the compiled join order may be
        sub-optimal but is still sound — re-plan without recompiling the
        statement.
        """
        store = self.session.store
        metrics = self.session.metrics
        cost_plan = compiled.cost_plan
        assert cost_plan is not None
        if cost_plan.ticket != store.ticket:
            metrics.count("plan.cost.replan")
            with metrics.time("plan"):
                planned = self._plan_cost(compiled)
            if planned is not None:
                compiled.planned = planned
                cost_plan = compiled.cost_plan
                assert cost_plan is not None
        return cost_plan

    def _cost_restrictions(
        self, compiled: CompiledQuery, cost_plan: "CostPlan"
    ) -> Tuple[Dict, set]:
        """Theorem 6.1 sets ∩ index-probe owners, per FROM variable."""
        session = self.session
        store = session.store
        metrics = session.metrics
        statement = compiled.statement
        assert isinstance(statement, ast.Query)
        restrictions: Dict[object, frozenset] = {}
        ranges = compiled.range_classes
        if ranges is not None:
            from repro.typing.optimizer import extent_restrictions

            # Each Theorem 6.1 set costs a ``store.extent`` per range
            # class (O(extent); only literal classes scan the active
            # domain) and is never needed for soundness, so only
            # compute the ones that can narrow an enumeration: skip
            # variables the index probes already restrict, non-FROM
            # variables (walks bind those, and the conds re-verify every
            # binding anyway), and FROM variables whose range is exactly
            # the declared class (``_bind_from`` scans that same extent).
            probed = {probe.var for probe in cost_plan.probes}
            keep = {
                decl.var
                for decl in statement.from_
                if decl.var not in probed
                and ranges.get(decl.var) not in (None, [decl.cls])
            }
            skip = frozenset(var for var in ranges if var not in keep)
            restrictions = dict(
                extent_restrictions(store, ranges, statement, skip)
            )
            for allowed in restrictions.values():
                metrics.observe("restriction", len(allowed))
        probe_vars: set = set()
        for probe in cost_plan.probes:
            owners = store.lookup_by_value(
                probe.method, probe.value, probe.args
            )
            if owners is None:
                # The index vanished (or reverse lookup became unsound)
                # since planning; fall back to scanning for this var.
                metrics.count("cost.probe_unavailable")
                continue
            metrics.count("cost.probe")
            probe_vars.add(probe.var)
            existing = restrictions.get(probe.var)
            restrictions[probe.var] = (
                owners if existing is None else existing & owners
            )
        return restrictions, probe_vars

    def ensure_cost_plan(self, compiled: CompiledQuery) -> Optional["CostPlan"]:
        """The compiled cost plan, or a lazily-built advisory one.

        Advisory plans (for ``explain``/``access_paths`` outside
        ``plan="cost"``) are computed with ``index_mode="manual"`` so
        that inspection never mutates the store.
        """
        if compiled.is_stale:
            self.session.metrics.count("cache.invalidated")
            self._build(compiled)
        if compiled.cost_plan is not None:
            return compiled.cost_plan
        statement = compiled.statement
        if not isinstance(statement, ast.Query):
            return None
        from repro.xsql.costplan import CostPlanner

        planner = CostPlanner(
            self.session.store,
            index_mode="manual",
            pointer_mode=compiled.options.pointer_join,
        )
        if not planner.applicable(statement):
            return None
        self.ensure_report(compiled)
        cost_plan = planner.plan(
            statement, range_classes=compiled.range_classes
        )
        if compiled.plan == "cost":
            # _plan_cost declined (e.g. it was not applicable then); keep
            # this advisory artifact off the compiled object so staleness
            # logic stays simple.
            return cost_plan
        compiled.cost_plan = cost_plan
        return cost_plan

    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached compilation (the store was replaced)."""
        self._cache.clear()
        self._texts.clear()

    def __len__(self) -> int:
        return len(self._cache)
