"""Reified physical operators: the one executor behind every query.

The plan is *reified*: a tree of physical operators with a uniform
``open()/batches()/close()`` interface over the factored binding-batch
representation.  Every ``plan=``/``engine=``/``join_mode`` combination
lowers to such a tree (:func:`lower_statement`) and runs through one
executor (:func:`execute`).  Object creation, views and
``INSERT INTO … SELECT`` run on the same trees: :func:`bindings` is the
binding stage of a lowered query, the deduplicated stream that
``Project`` would expand, handed to the §4.1 grouping instead.  The
tuple-at-a-time :class:`~repro.xsql.evaluator.Evaluator` remains only as
the engine operators call to evaluate one condition or operand.

The operator catalogue:

=================  ====================================================
``ExtentScan``     one FROM declaration over a full class extent
``RestrictedScan`` FROM over a Theorem 6.1 instantiation set
``IndexProbe``     FROM narrowed by an inverted-index probe
``PathEval``       a path-expression conjunct (``X.M[Y]``)
``Filter``         an unquantified comparison or schema predicate
``Quantify``       a ``some``/``all``-quantified comparison
``Aggregate``      a comparison over ``count``/``sum``/``avg``/…
``HashJoin``       equality between disjoint batches: build + probe
``SemiJoin``       equality against a ground path: hash-filter one side
``PointerJoin``    pointer-fused equality: binds a range variable by
                   dereferencing stored cells (forward navigation) or
                   probing the inverted index (backward), skipping the
                   variable's extent scan entirely
``NestedLoop``     any other conjunct, per binding — and, as a *root*,
                   whole-statement evaluation (WHERE-with-updates keeps
                   the exact lazy §5 stream; ``engine="naive"`` runs the
                   literal §3.4 enumeration)
``Project``        SELECT-item expansion into a result table, per
                   distinct projected column tuple
``SetOp``          UNION / MINUS / INTERSECT of two sub-results
=================  ====================================================

The executor state is a list of :class:`ColumnBatch` objects — disjoint
groups of bound variables, one value vector per variable — whose cross
product is the logical binding stream.  The batch algebra itself
(``merge_overlapping``/``merge_all``/``product_count``) lives in the
public module :mod:`repro.xsql.batches` and is re-exported here.  In
*merged* mode (every plan except ``cost`` + ``join_mode="hash"``) each
operator merges the whole state into a single batch first, which makes
the stream identical, binding for binding, to the legacy tuple-at-a-time
stages.  In *factored* mode batches merge only when a conjunct connects
them, and equality conjuncts between disjoint batches become hash or
semi joins.  Either way deduplication happens once, at the root:
``Project`` takes each batch's distinct projections onto the SELECT
variables and evaluates every item once per distinct binding of its own
variables (§3.3: an answer is a set of tuples), so results are
bit-identical across modes (the difftest oracle is the gate).  Hash and
semi joins likewise compute operand values once per distinct key and
gather their output columns by index, so joins and projection build no
per-row binding dicts.  Only :meth:`Project.bindings` (creation and
views) enumerates the deduplicated stream as dicts.

Scans admit their candidate extents in one sequential pass, merges
repeat/tile value vectors, and conjunct evaluation groups the stream by
its projection onto the conjunct's variables, consulting the
session-persistent walker memo once per distinct projection.  The
binding stream — order included — is the one the tuple-at-a-time
evaluator enumerates; only the work saved differs.

Each operator carries runtime counters — rows in/out (logical stream
sizes), batches, rows per batch, wall time of its own transform, and
path-cache hits — surfaced by ``CompiledQuery.explain(analyze=True)``
via :func:`tree_dict` / :func:`render_tree`.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import QueryError
from repro.oid import Atom, Oid, Variable, term_sort_key
from repro.xsql import ast
from repro.xsql.batches import (
    ColumnBatch,
    State,
    _cross_pair,
    _var_key,
    cross_state,
    merge_all,
    merge_overlapping,
    product_count,
    replay_deltas,
)
from repro.xsql.evaluator import (
    Evaluator,
    check_projectable,
    column_name,
    dedup,
    select_rows,
)
from repro.xsql.paths import Bindings, PathWalker
from repro.xsql.planner import _cond_has_updates
from repro.xsql.programs import KEEP, OperandProgram, key_env, lower
from repro.xsql.result import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics import SessionMetrics
    from repro.xsql.costplan import PlanEntry

__all__ = [
    "Aggregate",
    "ColumnBatch",
    "ExecContext",
    "ExtentScan",
    "Filter",
    "HashJoin",
    "IndexProbe",
    "LowerSpec",
    "NestedLoop",
    "Operator",
    "PathEval",
    "PointerJoin",
    "Project",
    "Quantify",
    "RestrictedScan",
    "SemiJoin",
    "SetOp",
    "bindings",
    "execute",
    "join_strategy_of",
    "lower_query",
    "operand_join_vars",
    "lower_statement",
    "merge_all",
    "merge_overlapping",
    "product_count",
    "render_tree",
    "stage_trace",
    "tree_dict",
]

#: Quantifiers with existential (∩ ≠ ∅) semantics under ``compare("=")``.
_EXISTENTIAL = (None, "some")


def _operand_join_vars(
    operand: ast.Operand,
) -> Optional[Tuple[Variable, ...]]:
    """The operand's free variables, when it is a plain path operand."""
    if isinstance(operand, ast.PathOperand):
        return tuple(dict.fromkeys(ast.path_variables(operand.path)))
    return None


#: Public alias — the cost planner's pointer-fusion rules use the same
#: "free variables of a join operand" notion as the strategy classifier.
operand_join_vars = _operand_join_vars


def join_strategy_of(cond: ast.Cond) -> str:
    """Classify a conjunct for set-at-a-time execution.

    ``"hash"``   — equality between two path operands with existential
                   quantifiers and disjoint variable sets: a hash join.
    ``"semi"``   — same shape but one side is ground: a semi-join filter
                   (hash the variable side, intersect with the constant).
    ``"nested"`` — anything else; evaluated per binding, exactly as the
                   tuple-at-a-time evaluator would.
    """
    if not isinstance(cond, ast.Comparison):
        return "nested"
    if cond.op != "=":
        return "nested"
    if cond.lq not in _EXISTENTIAL or cond.rq not in _EXISTENTIAL:
        return "nested"
    lvars = _operand_join_vars(cond.lhs)
    rvars = _operand_join_vars(cond.rhs)
    if lvars is None or rvars is None:
        return "nested"
    if set(lvars) & set(rvars):
        return "nested"  # shared variable: correlation, not a join
    if lvars and rvars:
        return "hash"
    if lvars or rvars:
        return "semi"
    return "nested"  # both ground: a constant test, no join to speed up


class ExecContext:
    """Per-run execution context shared by every operator in a tree."""

    __slots__ = ("evaluator", "metrics")

    def __init__(
        self,
        evaluator: Evaluator,
        metrics: Optional["SessionMetrics"] = None,
    ) -> None:
        self.evaluator = evaluator
        self.metrics = metrics

    def cache_hits(self) -> int:
        """Walker memo hits so far: path values plus every other entry."""
        if self.metrics is None:
            return 0
        counters = self.metrics.counters
        return counters.get("cache.path.hit", 0) + counters.get(
            "cache.memo.hit", 0
        )


# ----------------------------------------------------------------------
# the operator base
# ----------------------------------------------------------------------


class Operator:
    """One node of the physical plan: ``open()``, ``batches()``, ``close()``.

    ``batches()`` pulls the child state, transforms it, and memoizes the
    output for the run; counters measure only the node's own transform
    (child work is pulled outside the timer).  Root operators
    (:class:`Project`, :class:`SetOp`, whole-statement
    :class:`NestedLoop`) additionally implement ``result()``, and the
    query roots (:class:`Project`, :class:`NestedLoop`) ``bindings()``.
    """

    name = "Operator"

    def __init__(
        self,
        child: Optional["Operator"] = None,
        *,
        label: str = "",
        detail: str = "",
        estimated_rows: Optional[float] = None,
        merge_all: bool = False,
    ) -> None:
        self.child = child
        self.label = label
        self.detail = detail
        self.estimated_rows = estimated_rows
        self.merge_all = merge_all
        self.statement: Optional[ast.Statement] = None
        self._ctx: Optional[ExecContext] = None
        self._output: Optional[State] = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.rows_in = 0
        self.rows_out = 0
        self.batches_out = 0
        self.wall_seconds = 0.0
        self.cache_hits = 0
        self.executed = False

    @property
    def children(self) -> List["Operator"]:
        return [self.child] if self.child is not None else []

    # -- lifecycle ------------------------------------------------------

    def open(self, ctx: ExecContext) -> None:
        self._ctx = ctx
        self._output = None
        self._reset_counters()
        for child in self.children:
            child.open(ctx)

    def batches(self) -> State:
        if self._output is None:
            state = self.child.batches() if self.child is not None else []
            self._output = self._measure(state)
        return self._output

    def close(self) -> None:
        for child in self.children:
            child.close()
        ctx = self._ctx
        if ctx is not None and ctx.metrics is not None and self.executed:
            ctx.metrics.count(f"op.{self.name}")

    # -- instrumentation ------------------------------------------------

    def _measure(self, state: State) -> State:
        ctx = self._ctx
        assert ctx is not None, "operator used before open()"
        self.rows_in = product_count(state)
        hits = ctx.cache_hits()
        started = time.perf_counter()
        out = self._transform(state)
        self.wall_seconds += time.perf_counter() - started
        self.cache_hits += ctx.cache_hits() - hits
        self.rows_out = product_count(out)
        self.batches_out = len(out)
        self.executed = True
        return out

    def _transform(self, state: State) -> State:
        raise NotImplementedError

    def result(self) -> QueryResult:
        raise QueryError(f"{self.name} is not a plan root")

    def bindings(self) -> Iterator[Bindings]:
        raise QueryError(f"{self.name} is not a query root")


# ----------------------------------------------------------------------
# scans: one FROM declaration each
# ----------------------------------------------------------------------


class ScanOperator(Operator):
    """Bind one FROM declaration over the incoming stream.

    All three scan flavours admit candidates exactly as
    ``Evaluator._bind_from`` does, consulting the evaluator's
    per-variable restrictions at runtime — the subclass records *which
    access path the plan chose* (and `EXPLAIN ANALYZE` then shows whether
    it paid off).
    """

    def __init__(
        self, decl: ast.FromDecl, child: Optional[Operator] = None, **kw
    ) -> None:
        kw.setdefault("label", f"FROM {decl.cls} {decl.var}")
        super().__init__(child, **kw)
        self.decl = decl

    def _transform(self, state: State) -> State:
        decl = self.decl
        touched = {decl.var}
        if isinstance(decl.cls, Variable):
            touched.add(decl.cls)
        base, rest = merge_overlapping(state, touched, self.merge_all)
        rest.append(self._bind_decl(base, touched))
        return rest

    def _bind_decl(
        self, base: ColumnBatch, touched: Set[Variable]
    ) -> ColumnBatch:
        """Bind the declaration over *base*.

        Mirrors ``Evaluator._bind_from`` binding for binding: the
        candidate stream (extent, restricted set, or the already-bound
        object) is admitted in order.

        When the FROM class is a constant and the incoming batch leaves
        the scan variable unbound, candidates and admission are
        independent of the incoming bindings: the scan admits the
        candidate list **once** and cross-products it against the batch
        (env-outer, candidate-inner — ``_bind_from``'s order) instead of
        re-admitting per incoming env.
        """
        ctx = self._ctx
        assert ctx is not None
        evaluator = ctx.evaluator
        decl = self.decl
        if not isinstance(decl.cls, Variable) and decl.var not in base.vars:
            pairs = list(evaluator._from_classes(decl, {}))
            if not pairs:
                out_vars = base.vars | touched
                return ColumnBatch(
                    out_vars,
                    {var: [] for var in sorted(out_vars, key=_var_key)},
                    0,
                )
            _env1, cls = pairs[0]
            candidates, admit = evaluator._scan_candidates(decl, {}, cls)
            admitted = [obj for obj in candidates if admit(obj)]
            bound = ColumnBatch(
                {decl.var}, {decl.var: admitted}, len(admitted)
            )
            return _cross_pair(base, bound)
        rows: List[Bindings] = []
        for env in base.rows():
            for env1, cls in evaluator._from_classes(decl, env):
                bound_var = env1.get(decl.var)
                if bound_var is not None:
                    if evaluator.store.is_instance(bound_var, cls):
                        rows.append(env1)
                    continue
                candidates, admit = evaluator._scan_candidates(
                    decl, env1, cls
                )
                for obj in candidates:
                    if admit(obj):
                        bound_env = dict(env1)
                        bound_env[decl.var] = obj
                        rows.append(bound_env)
        return ColumnBatch.from_rows(base.vars | touched, rows)


class ExtentScan(ScanOperator):
    name = "ExtentScan"


class RestrictedScan(ScanOperator):
    """FROM over a Theorem 6.1 instantiation set instead of the extent."""

    name = "RestrictedScan"


class IndexProbe(ScanOperator):
    """FROM narrowed to the owners found by an inverted-index probe."""

    name = "IndexProbe"


# ----------------------------------------------------------------------
# conjuncts
# ----------------------------------------------------------------------


class CondOperator(Operator):
    """Base for operators that apply one WHERE conjunct to the stream."""

    def __init__(
        self,
        cond: Optional[ast.Cond],
        child: Optional[Operator] = None,
        *,
        program=None,
        **kw,
    ) -> None:
        if cond is not None:
            kw.setdefault("label", str(cond))
        super().__init__(child, **kw)
        self.cond = cond
        #: The conjunct's step program (:func:`repro.xsql.programs.lower`).
        self.program = program

    def _transform(self, state: State) -> State:
        return self._merge_eval(state)

    def _merge_eval(self, state: State) -> State:
        """Merge what the conjunct touches; evaluate it per binding."""
        assert self.cond is not None and self._ctx is not None
        cond_vars = set(ast.cond_variables(self.cond))
        base, rest = merge_overlapping(state, cond_vars, self.merge_all)
        metrics = self._ctx.metrics
        if not self.merge_all and metrics is not None:
            metrics.count("join.filter")
        rest.append(self._grouped_eval(base, cond_vars))
        return rest

    def _grouped_eval(
        self, base: ColumnBatch, cond_vars: Set[Variable]
    ) -> ColumnBatch:
        """Evaluate the conjunct once per distinct variable projection.

        A conjunct only reads its own variables (``ast.cond_variables``
        is a superset of everything evaluation can touch, subquery free
        variables included), so two rows agreeing on that projection get
        the same *delta* — the bindings the conjunct adds beyond the
        projection.  The whole step is column-at-a-time: projection keys
        are zipped straight out of the batch's vectors, deltas are
        computed once per distinct key (and memoized across runs in the
        walker memo), and the output vectors are assembled without
        materializing row dicts.  Replay order per row equals the
        per-row ``eval_cond`` order, so the stream is bit-identical to
        the ungrouped evaluation.

        A comparison computes each key on its step program
        (:class:`~repro.xsql.programs.ComparisonProgram`) instead of
        ``eval_cond`` whenever the key binds every variable the
        comparison would enumerate; the chain values it computes count
        as path-memo misses, once per batch.
        """
        ctx = self._ctx
        assert ctx is not None and self.cond is not None
        evaluator = ctx.evaluator
        cond = self.cond
        program = self.program
        key_vars = (
            sorted(cond_vars, key=_var_key)
            if program is None
            else program.key_vars
        )

        def deltas(key: Tuple) -> Tuple[Bindings, ...]:
            projection = key_env(key_vars, key)
            return tuple(
                {
                    var: value
                    for var, value in out.items()
                    if var not in projection
                }
                for out in evaluator.eval_cond(cond, projection)
            )

        compute, chains = (
            (deltas, None)
            if program is None
            else program.bind(evaluator, deltas)
        )
        keys, per_key = self._per_key("cond", cond, key_vars, base, compute)
        if chains is not None and chains() and ctx.metrics is not None:
            ctx.metrics.count("cache.path.miss", chains())
        return replay_deltas(base, cond_vars, [per_key[key] for key in keys])

    def _per_key(
        self,
        tag: str,
        node: object,
        key_vars: Sequence[Variable],
        base: ColumnBatch,
        compute,
    ) -> Tuple[List[Tuple], Dict[Tuple, object]]:
        """*compute* once per distinct projection of *base* onto *key_vars*.

        Returns the per-row projection keys and the value per distinct
        key, memoized across runs under the ``(tag, node)`` token
        (:meth:`PathWalker.memo_map`); *compute* gets the key tuple.
        """
        assert self._ctx is not None
        keys = base.projection_keys(key_vars)
        walker = self._ctx.evaluator.walker
        return keys, walker.memo_map(tag, node, keys, compute)

    def _operand_per_key(
        self, operand: ast.Operand, base: ColumnBatch
    ) -> Tuple[List[Tuple], Dict[Tuple, object]]:
        """The operand's value set once per distinct projection of *base*
        onto the operand's variables (the key :meth:`_operand_values`
        memoizes under, so both share entries), each read off the key by
        the operand's step program."""
        assert self._ctx is not None
        key_vars = _operand_key_vars(operand)
        program = OperandProgram(operand, key_vars)
        return self._per_key(
            "operand",
            operand,
            key_vars,
            base,
            program.bind(self._ctx.evaluator),
        )

    def _operand_values(self, operand: ast.Operand, env: Bindings):
        """The operand's value set under *env*, memoized on the projection
        onto the operand's variables (which bounds everything its
        evaluation can read)."""
        assert self._ctx is not None
        evaluator = self._ctx.evaluator
        key_vars = _operand_key_vars(operand)
        key = tuple(env.get(var) for var in key_vars)
        return evaluator.walker.memoized(
            "operand",
            operand,
            key_vars,
            (key,),
            lambda projection: evaluator.eval_operand(operand, projection),
        )[key]


def _operand_key_vars(operand: ast.Operand) -> List[Variable]:
    return sorted(set(ast.operand_variables(operand)), key=_var_key)


class PathEval(CondOperator):
    """A path-expression conjunct: walk and extend bindings."""

    name = "PathEval"


class Filter(CondOperator):
    """An unquantified comparison or schema predicate."""

    name = "Filter"


class Quantify(CondOperator):
    """A ``some``/``all``-quantified comparison (vacuous truth included)."""

    name = "Quantify"


class Aggregate(CondOperator):
    """A comparison over an aggregate operand (count/sum/avg/min/max)."""

    name = "Aggregate"


def _covering(state: State, needed: Set[Variable]) -> Optional[State]:
    """Batches covering *needed*, each with it fully bound; else None."""
    found = [batch for batch in state if batch.vars & needed]
    covered = set().union(*(b.vars for b in found)) if found else set()
    if not needed <= covered:
        return None  # an operand variable no batch binds yet
    for batch in found:
        if batch.has_unbound(batch.vars & needed):
            return None  # declared but unbound (e.g. empty walk)
    return found


def _setwise_ready(
    state: State, lvars: Set[Variable], rvars: Set[Variable]
) -> bool:
    left_owners = _covering(state, lvars)
    right_owners = _covering(state, rvars)
    if left_owners is None or right_owners is None:
        return False
    if set(map(id, left_owners)) & set(map(id, right_owners)):
        return False  # one batch feeds both operands: correlated
    return True


class HashJoin(CondOperator):
    """Equality between disjoint batches: build on the smaller, probe.

    Column-at-a-time: each side's operand values are computed once per
    distinct projection onto the operand's variables (memoized across
    runs), the build side is hashed by row index, and the output columns
    are gathered by index — probe-major, ascending build index, the
    order the row-dict join enumerated.  Falls back to the per-binding
    merge when a precondition fails at runtime (an operand variable
    unbound, or both sides fed by the same batch) — results stay
    bit-identical either way.
    """

    name = "HashJoin"

    def _transform(self, state: State) -> State:
        out = self._try_join(state)
        if out is None:
            return self._merge_eval(state)
        return out

    def _try_join(self, state: State) -> Optional[State]:
        cond = self.cond
        assert isinstance(cond, ast.Comparison) and self._ctx is not None
        lvars = set(_operand_join_vars(cond.lhs) or ())
        rvars = set(_operand_join_vars(cond.rhs) or ())
        if not _setwise_ready(state, lvars, rvars):
            return None
        ctx = self._ctx
        left, rest = merge_overlapping(state, lvars)
        right, rest = merge_overlapping(rest, rvars)
        build, build_op, probe, probe_op = (
            (left, cond.lhs, right, cond.rhs)
            if len(left) <= len(right)
            else (right, cond.rhs, left, cond.lhs)
        )
        build_keys, build_values = self._operand_per_key(build_op, build)
        probe_keys, probe_values = self._operand_per_key(probe_op, probe)
        table: Dict[Oid, List[int]] = {}
        for index, key in enumerate(build_keys):
            for value in build_values[key]:
                table.setdefault(value, []).append(index)
        matches: Dict[Tuple, List[int]] = {}
        for key, values in probe_values.items():
            matched: Set[int] = set()
            for value in values:
                matched.update(table.get(value, ()))
            matches[key] = sorted(matched)
        # Probe-major, ascending build index: the order the row-dict
        # join enumerated.
        build_rows: List[int] = []
        probe_rows: List[int] = []
        for index, key in enumerate(probe_keys):
            matched_rows = matches[key]
            build_rows.extend(matched_rows)
            probe_rows.extend([index] * len(matched_rows))
        out_vars = left.vars | right.vars
        columns: Dict[Variable, List[object]] = {}
        for var in sorted(out_vars, key=_var_key):
            side, rows = (
                (build, build_rows)
                if var in build.columns
                else (probe, probe_rows)
            )
            column = side.columns[var]
            columns[var] = [column[index] for index in rows]
        rest.append(ColumnBatch(out_vars, columns, len(build_rows)))
        if ctx.metrics is not None:
            ctx.metrics.count("join.hash")
        return rest


class SemiJoin(CondOperator):
    """Equality against a ground path: hash-filter the variable side.

    The ground value set is computed once, the keyed operand once per
    distinct projection, and the kept rows are selected column-wise.
    """

    name = "SemiJoin"

    def _transform(self, state: State) -> State:
        cond = self.cond
        assert isinstance(cond, ast.Comparison) and self._ctx is not None
        lvars = set(_operand_join_vars(cond.lhs) or ())
        rvars = set(_operand_join_vars(cond.rhs) or ())
        if not _setwise_ready(state, lvars, rvars):
            return self._merge_eval(state)
        ctx = self._ctx
        keyed, ground_op = (
            (lvars, cond.rhs) if lvars else (rvars, cond.lhs)
        )
        keyed_op = cond.lhs if keyed is lvars else cond.rhs
        base, rest = merge_overlapping(state, keyed)
        ground = self._operand_values(ground_op, {})
        if ground:
            keys, values = self._operand_per_key(keyed_op, base)
            hit = {
                key: KEEP if not ground.isdisjoint(found) else ()
                for key, found in values.items()
            }
            per_row: List[Sequence[Bindings]] = [hit[key] for key in keys]
        else:
            per_row = [()] * base.length
        rest.append(replay_deltas(base, keyed, per_row))
        if ctx.metrics is not None:
            ctx.metrics.count("join.semi")
        return rest


class PointerJoin(CondOperator):
    """Pointer-fused equality: bind a range variable by navigation.

    The cost planner fuses a conjunct equating an OID-valued path with a
    range variable (``X.Manufacturer = M``) into this operator and skips
    ``M``'s extent scan.  ``M`` is then bound either by *forward*
    navigation — dereference the path side's stored cells per binding —
    or by *backward* navigation — probe the inverted index on the path's
    method with the other side's values (``store.lookup_by_value``).
    Either way each produced value is admitted exactly as the skipped
    scan would have admitted it (class membership plus the evaluator's
    per-variable restriction), so the output stream is set-identical to
    scan-then-filter.

    The operator groups the stream by its projection onto the other
    side's variables and dereferences once per distinct projection;
    deltas are memoized in the walker memo.

    Every precondition is re-checked at runtime — an unbound operand
    variable, an incomplete index, or an already-bound fused variable
    falls back to the unfused scan + per-binding merge, bit-identically.
    """

    name = "PointerJoin"

    def __init__(
        self,
        cond: ast.Cond,
        child: Optional[Operator] = None,
        *,
        decl: ast.FromDecl,
        direction: str = "forward",
        **kw,
    ) -> None:
        super().__init__(cond, child, **kw)
        if direction not in ("forward", "backward"):
            raise QueryError(
                f"pointer-join direction must be forward/backward, "
                f"got {direction!r}"
            )
        self.decl = decl
        self.direction = direction
        #: The skipped scan, kept as a private fallback: when a fast-path
        #: precondition fails we bind the variable the unfused way and
        #: apply the conjunct per binding.
        self._scan = ExtentScan(decl)

    def _reset_counters(self) -> None:
        super()._reset_counters()
        self.derefs = 0

    def open(self, ctx: ExecContext) -> None:
        super().open(ctx)
        self._scan.open(ctx)

    def _transform(self, state: State) -> State:
        out = self._try_pointer(state)
        if out is None:
            return self._merge_eval(self._scan._transform(state))
        return out

    # -- the fused fast path -------------------------------------------

    def _sides(
        self,
    ) -> Tuple[Optional[ast.Operand], Optional[ast.Operand]]:
        """(fused side, other side) of the equality, shape-checked."""
        cond = self.cond
        assert isinstance(cond, ast.Comparison)
        var = self.decl.var
        for mine, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if not isinstance(mine, ast.PathOperand):
                continue
            path = mine.path
            if path.head != var:
                continue
            if self.direction == "forward":
                if path.is_trivial:
                    return mine, other
                continue
            if len(path.steps) != 1:
                continue
            step = path.steps[0]
            if step.selector is not None:
                continue
            if not isinstance(step.method_expr.method, Atom):
                continue
            if not all(isinstance(a, Oid) for a in step.method_expr.args):
                continue
            return mine, other
        return None, None

    def _try_pointer(self, state: State) -> Optional[State]:
        cond = self.cond
        ctx = self._ctx
        assert isinstance(cond, ast.Comparison) and ctx is not None
        if cond.op != "=" or cond.lq not in _EXISTENTIAL or (
            cond.rq not in _EXISTENTIAL
        ):
            return None
        var = self.decl.var
        if isinstance(self.decl.cls, Variable):
            return None
        if any(var in batch.vars for batch in state):
            return None  # already bound: the scan must re-admit it
        mine, other = self._sides()
        if mine is None or other is None or not isinstance(
            other, ast.PathOperand
        ):
            return None
        other_vars = set(ast.operand_variables(other))
        if var in other_vars:
            return None  # correlated: not a join
        method: Optional[Atom] = None
        args: Tuple[Oid, ...] = ()
        if self.direction == "backward":
            step = mine.path.steps[0]
            method = step.method_expr.method
            args = tuple(step.method_expr.args)
            if not ctx.evaluator.store.index_is_complete_for(method):
                return None
        if other_vars and _covering(state, other_vars) is None:
            return None
        cond_vars = set(ast.cond_variables(cond))
        base, rest = merge_overlapping(state, cond_vars)
        batch = self._deref_grouped(
            base, cond_vars, other_vars, other, method, args
        )
        if batch is None:
            return None
        rest.append(batch)
        if ctx.metrics is not None:
            ctx.metrics.count("join.pointer")
        return rest

    def _bind(
        self,
        other: ast.Operand,
        env: Bindings,
        method: Optional[Atom],
        args: Tuple[Oid, ...],
    ) -> Optional[Tuple[Bindings, ...]]:
        """The bindings navigation adds for one projection; None when the
        inverted index cannot answer exactly (backward only)."""
        ctx = self._ctx
        assert ctx is not None
        evaluator = ctx.evaluator
        store = evaluator.store
        var = self.decl.var
        cls = self.decl.cls
        values = self._operand_values(other, env)
        self.derefs += 1
        if self.direction == "forward":
            candidates = values
        else:
            assert method is not None
            owners: Set[Oid] = set()
            for value in values:
                got = store.lookup_by_value(method, value, args)
                if got is None:
                    return None
                owners |= got
            candidates = owners
        admits = evaluator.walker.admits
        return tuple(
            {var: value}
            for value in sorted(candidates, key=term_sort_key)
            if store.is_instance(value, cls) and admits(var, value)
        )

    def _deref_grouped(
        self,
        base: ColumnBatch,
        cond_vars: Set[Variable],
        other_vars: Set[Variable],
        other: ast.Operand,
        method: Optional[Atom],
        args: Tuple[Oid, ...],
    ) -> Optional[ColumnBatch]:
        """Dereference once per distinct projection."""
        key_vars = sorted(other_vars, key=_var_key)
        keys, deltas = self._per_key(
            "pointer:" + self.direction,
            self.cond,
            key_vars,
            base,
            lambda key: self._bind(
                other, key_env(key_vars, key), method, args
            ),
        )
        if any(found is None for found in deltas.values()):
            return None  # incomplete index discovered mid-run
        return replay_deltas(base, cond_vars, [deltas[key] for key in keys])


class NestedLoop(CondOperator):
    """Per-binding evaluation of anything the other operators don't claim.

    In a pipeline position it merges what the conjunct touches and runs
    the inherited ``eval_cond`` per binding (OR/NOT/nested AND).  As a
    *root* (``cond=None``, ``statement=...``) it evaluates a whole
    statement through the context's evaluator in one step: WHERE clauses
    containing updates must keep the exact lazy left-to-right stream of
    §5, and ``engine="naive"`` runs the literal §3.4 enumeration.
    """

    name = "NestedLoop"

    def __init__(
        self,
        cond: Optional[ast.Cond] = None,
        child: Optional[Operator] = None,
        *,
        statement: Optional[ast.Statement] = None,
        **kw,
    ) -> None:
        if cond is None and statement is not None:
            kw.setdefault("label", _clip(str(statement)))
        super().__init__(cond, child, **kw)
        self.statement = statement

    def bindings(self) -> Iterator[Bindings]:
        assert isinstance(self.statement, ast.Query) and self._ctx is not None
        self.executed = True
        return self._ctx.evaluator.env_stream(self.statement)

    def result(self) -> QueryResult:
        assert self.statement is not None and self._ctx is not None
        ctx = self._ctx
        hits = ctx.cache_hits()
        started = time.perf_counter()
        result = ctx.evaluator.run(self.statement)
        self.wall_seconds += time.perf_counter() - started
        self.cache_hits += ctx.cache_hits() - hits
        self.rows_out = len(result)
        self.batches_out = 1
        self.executed = True
        return result


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------


def _item_label(item: ast.SelectItem) -> str:
    if isinstance(item, ast.PathItem):
        return item.name or str(item.path)
    if isinstance(item, ast.SetItem):
        return item.name
    return str(item)


def _clip(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


class Project(Operator):
    """Expand SELECT items over the distinct projections of the stream.

    §3.3 makes an answer a *set* of oid tuples, so :meth:`result`
    projects on columns rather than on deduplicated environments: it
    drops the batches that bind no SELECT variable (they only repeat
    rows, and an empty one empties the answer), takes each remaining
    batch's distinct projection onto the SELECT variables, and evaluates
    each item once per distinct binding of its own variables, memoized
    across runs in the walker memo.  A projection's rows are the
    product of its items' value sets.  The items are walked jointly
    (``select_rows``) only where a projection leaves unbound a variable
    two items share, so both bind it to the same value, and where there
    is a single projection, which has nothing to reuse and so skips the
    per-item setup.
    """

    name = "Project"

    def __init__(
        self, query: ast.Query, child: Optional[Operator] = None, **kw
    ) -> None:
        kw.setdefault(
            "label", ", ".join(_item_label(item) for item in query.select)
        )
        super().__init__(child, **kw)
        self.query = query

    def _input(self) -> State:
        state = self.child.batches() if self.child is not None else []
        self.rows_in = product_count(state)
        return state

    def bindings(self) -> Iterator[Bindings]:
        """The binding stage: the deduplicated stream below the projection."""
        return dedup(cross_state(self._input()))

    def result(self) -> QueryResult:
        query = self.query
        # The same guards Evaluator.run applies, before any child work.
        check_projectable(query)
        ctx = self._ctx
        assert ctx is not None
        state = self._input()
        hits = ctx.cache_hits()
        started = time.perf_counter()
        result = QueryResult([column_name(item) for item in query.select])
        for row in _project(ctx.evaluator.walker, query.select, state):
            result.add(row)
        self.wall_seconds += time.perf_counter() - started
        self.cache_hits += ctx.cache_hits() - hits
        self.rows_out = len(result)
        self.batches_out = 1
        self.executed = True
        return result


def _item_variables(item: ast.SelectItem) -> Tuple[Variable, ...]:
    if isinstance(item, ast.PathItem):
        return item.path.free_variables
    return ()


def _item_walk(
    walker: PathWalker,
    item: ast.SelectItem,
    item_vars: Tuple[Variable, ...],
    key: Tuple,
) -> FrozenSet[Oid]:
    """The item's value set under one binding of its variables: the
    tails of its walk, unbound variables ranging existentially."""
    if not isinstance(item, ast.PathItem):
        raise QueryError("set-attribute SELECT items require OID FUNCTION OF")
    env = key_env(item_vars, key)
    return frozenset(hit.tail for hit in walker.walk(item.path, env))


def _project(
    walker: PathWalker, items: Sequence[ast.SelectItem], state: State
) -> Iterator[Tuple[Oid, ...]]:
    """The result tuples of *items* over *state* (a set; order is free).

    An atom-chain item reads its values off the key through its step
    program (:func:`~repro.xsql.programs.lower`, cheap enough to lower
    per run); any other item walks.
    """
    if any(batch.length == 0 for batch in state):
        return
    item_vars = [_item_variables(item) for item in items]
    select_vars = {var for vars_ in item_vars for var in vars_}
    # Lay each batch's SELECT variables side by side in one key tuple;
    # a variable no batch binds reads the trailing None slot.
    slots: Dict[Variable, int] = {}
    per_batch: List[List[Tuple]] = []
    n_keys = 1
    for batch in state:
        batch_vars = sorted(batch.vars & select_vars, key=_var_key)
        if batch_vars:
            for var in batch_vars:
                slots[var] = len(slots)
            keys = list(dict.fromkeys(batch.projection_keys(batch_vars)))
            per_batch.append(keys)
            n_keys *= len(keys)
    keys_iter = (
        tuple(itertools.chain.from_iterable(parts)) + (None,)
        for parts in itertools.product(*per_batch)
    )
    if n_keys == 1:
        # One projection (a point query): nothing to reuse across keys,
        # and the joint walk skips the per-item setup below.
        yield from select_rows(walker, items, _key_env(slots, next(keys_iter)))
        return
    unbound_slot = len(slots)
    positions = [
        tuple(slots.get(var, unbound_slot) for var in vars_)
        for vars_ in item_vars
    ]
    uses = Counter(var for vars_ in item_vars for var in vars_)
    shared = {slots.get(var, unbound_slot) for var, n in uses.items() if n > 1}
    # Per item: this run's values by key, then the walker memo under an
    # interned token (memo_token runs the freshness check; walks are
    # read-only, so the loop uses the unchecked primitives).  A run
    # writes at most the memo's capacity, the rule of
    # PathWalker.memoized.
    seen: List[Dict[Tuple, FrozenSet[Oid]]] = [{} for _ in items]
    budget = walker.memo_capacity
    tokens = [walker.memo_token("select", item) for item in items]
    getters = [_key_getter(slots_of) for slots_of in positions]
    tails = [
        None if program is None else program.tails(walker.store)
        for program in map(lower, items)
    ]
    bare = [
        isinstance(item, ast.PathItem)
        and not item.path.steps
        and isinstance(item.path.head, Variable)
        for item in items
    ]
    hits = misses = 0
    for key in keys_iter:
        if any(key[slot] is None for slot in shared):
            yield from select_rows(walker, items, _key_env(slots, key))
            continue
        value_sets = []
        for index, getter in enumerate(getters):
            item_key = getter(key)
            # A bare variable projects its own cell, unless the cell is a
            # path variable's method sequence, which the walk reifies as
            # attrpath(...).
            if bare[index] and isinstance(item_key[0], Oid):
                value_sets.append(item_key)
                continue
            values = seen[index].get(item_key)
            if values is None:
                memo_key = (tokens[index], item_key)
                values = walker.memo_get_fresh(memo_key)
                if values is None:
                    fetch = tails[index]
                    values = None if fetch is None else fetch(item_key)
                    if values is None:
                        values = _item_walk(
                            walker, items[index], item_vars[index], item_key
                        )
                    misses += 1
                    if budget:
                        walker.memo_put(memo_key, values)
                        budget -= 1
                else:
                    hits += 1
                seen[index][item_key] = values
            if not values:
                break  # the joint walk stops here too: no later item runs
            value_sets.append(values)
        else:
            yield from itertools.product(*value_sets)
    walker.memo_counts(hits, misses)


def _key_env(slots: Dict[Variable, int], key: Tuple) -> Bindings:
    """The binding a projection key denotes (unbound cells omitted)."""
    return {
        var: key[slot] for var, slot in slots.items() if key[slot] is not None
    }


def _key_getter(slots_of: Tuple[int, ...]):
    """A function picking the cells at *slots_of* out of a key, as a tuple."""
    if len(slots_of) == 1:
        (slot,) = slots_of
        return lambda key: (key[slot],)
    if not slots_of:
        return lambda key: ()
    return itemgetter(*slots_of)


class SetOp(Operator):
    """UNION / MINUS / INTERSECT of two sub-plans (``QueryOp``)."""

    name = "SetOp"

    def __init__(self, op: str, left: Operator, right: Operator, **kw) -> None:
        kw.setdefault("label", op)
        super().__init__(None, **kw)
        self.op = op
        self.left = left
        self.right = right

    @property
    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def result(self) -> QueryResult:
        left = self.left.result()
        right = self.right.result()
        started = time.perf_counter()
        if self.op == "union":
            combined = left.union(right)
        elif self.op == "minus":
            combined = left.minus(right)
        else:
            combined = left.intersect(right)
        self.wall_seconds += time.perf_counter() - started
        self.rows_in = len(left) + len(right)
        self.rows_out = len(combined)
        self.batches_out = 1
        self.executed = True
        return combined


# ----------------------------------------------------------------------
# lowering: statements -> operator trees
# ----------------------------------------------------------------------


class LowerSpec:
    """What the planner decided; everything the lowering rules consult.

    ``factored``     keep the stream factored (cost plan + hash joins)
                     instead of merging every batch at each operator.
    ``restrictions`` the per-variable instantiation sets the run will
                     pass to the evaluator (Theorem 6.1 ∩ index probes);
                     used to label scans when no plan entries exist.
    ``probe_vars``   FROM variables narrowed by an index probe.
    ``entries``      the cost plan's entries, aligned FROM-decls-first
                     then conjuncts-in-plan-order; they carry labels,
                     access paths, and estimated cardinalities.
    ``programs``     the step programs lowered so far, by node: the
                     compiled statement's cache, so a re-run lowers none.
    """

    def __init__(
        self,
        factored: bool = False,
        restrictions: Optional[Mapping[Variable, object]] = None,
        probe_vars: Optional[Set[Variable]] = None,
        entries: Sequence["PlanEntry"] = (),
        programs: Optional[Dict[object, object]] = None,
    ) -> None:
        self.factored = factored
        self.restrictions = restrictions or {}
        self.probe_vars = probe_vars or set()
        self.entries = list(entries)
        self.programs = {} if programs is None else programs

    def program(self, cond: ast.Cond):
        """The step program of a comparison conjunct, lowered on first
        use; None for any other conjunct."""
        if not isinstance(cond, ast.Comparison):
            return None
        program = self.programs.get(cond)
        if program is None:
            program = self.programs[cond] = lower(cond)
        return program


def _scan_class(
    decl: ast.FromDecl, spec: LowerSpec, entry: Optional["PlanEntry"]
) -> type:
    if entry is not None:
        if entry.access_path == "index-probe":
            return IndexProbe
        if entry.access_path == "restricted-range":
            return RestrictedScan
        return ExtentScan
    if decl.var in spec.probe_vars:
        return IndexProbe
    if decl.var in spec.restrictions:
        return RestrictedScan
    return ExtentScan


def _cond_class(cond: ast.Cond, factored: bool) -> type:
    if isinstance(cond, ast.PathCond):
        return PathEval
    if isinstance(cond, ast.SchemaCond):
        return Filter
    if isinstance(cond, ast.Comparison):
        if factored:
            strategy = join_strategy_of(cond)
            if strategy == "hash":
                return HashJoin
            if strategy == "semi":
                return SemiJoin
        if isinstance(cond.lhs, ast.AggOperand) or isinstance(
            cond.rhs, ast.AggOperand
        ):
            return Aggregate
        if cond.lq is not None or cond.rq is not None:
            return Quantify
        return Filter
    return NestedLoop


def _entry_kwargs(entry: Optional["PlanEntry"]) -> Dict[str, object]:
    if entry is None:
        return {}
    kwargs: Dict[str, object] = {
        "label": entry.label,
        "estimated_rows": entry.estimated_rows,
    }
    if entry.detail:
        kwargs["detail"] = entry.detail
    return kwargs


def lower_query(query: ast.Query, spec: LowerSpec) -> Operator:
    """Lower one plain query into an operator tree rooted at Project.

    A WHERE clause containing updates (§5) must interleave its side
    effects with the lazy left-to-right binding stream — projection
    included — so such queries lower to a single whole-statement
    :class:`NestedLoop` instead of a staged pipeline.
    """
    if query.where is not None and _cond_has_updates(query.where):
        return NestedLoop(
            statement=query,
            detail="WHERE contains updates: exact §5 stream",
        )
    merge_all = not spec.factored
    entries = spec.entries
    position = 0
    node: Optional[Operator] = None
    fused: Dict[Variable, ast.FromDecl] = {}
    for decl in query.from_:
        entry = entries[position] if position < len(entries) else None
        position += 1
        if (
            spec.factored
            and entry is not None
            and entry.access_path == "pointer-fused"
        ):
            # The cost plan fused this scan into a PointerJoin below;
            # remember the declaration so the join can admit (or, on
            # fallback, scan) exactly what this declaration would have.
            fused[decl.var] = decl
            continue
        scan_cls = _scan_class(decl, spec, entry)
        node = scan_cls(
            decl, node, merge_all=merge_all, **_entry_kwargs(entry)
        )
    if query.where is not None:
        conjuncts = (
            list(query.where.items)
            if isinstance(query.where, ast.AndCond)
            else [query.where]
        )
        for cond in conjuncts:
            entry = entries[position] if position < len(entries) else None
            position += 1
            if (
                spec.factored
                and entry is not None
                and entry.join_strategy == "pointer"
                and entry.pointer_var in fused
            ):
                node = PointerJoin(
                    cond,
                    node,
                    decl=fused.pop(entry.pointer_var),
                    direction=entry.pointer_direction or "forward",
                    merge_all=merge_all,
                    program=spec.program(cond),
                    **_entry_kwargs(entry),
                )
                continue
            cond_cls = _cond_class(cond, spec.factored)
            node = cond_cls(
                cond,
                node,
                merge_all=merge_all,
                program=spec.program(cond),
                **_entry_kwargs(entry),
            )
    # Safety net: a fused declaration whose conjunct never lowered (a
    # plan/lowering mismatch) still gets its scan, so no variable is
    # ever silently left unbound.
    for decl in fused.values():
        node = ExtentScan(decl, node, merge_all=merge_all)
    return Project(query, node)


def lower_statement(
    statement: ast.Statement, spec: Optional[LowerSpec] = None
) -> Operator:
    """Lower a query or set-combination into its physical-operator tree."""
    if spec is None:
        spec = LowerSpec()
    if isinstance(statement, ast.QueryOp):
        return SetOp(
            statement.op,
            lower_statement(statement.left, spec),
            lower_statement(statement.right, spec),
        )
    assert isinstance(statement, ast.Query), statement
    return lower_query(statement, spec)


# ----------------------------------------------------------------------
# execution + introspection
# ----------------------------------------------------------------------


def execute(
    root: Operator,
    evaluator: Evaluator,
    metrics: Optional["SessionMetrics"] = None,
) -> QueryResult:
    """Run an operator tree to completion and return its result table."""
    ctx = ExecContext(evaluator, metrics)
    root.open(ctx)
    try:
        return root.result()
    finally:
        root.close()


def bindings(query: ast.Query, evaluator: Evaluator) -> Iterator[Bindings]:
    """The satisfying bindings of *query*'s FROM and WHERE clauses.

    Lowers the query as ``plan="none"`` does and runs the tree's binding
    stage, so object creation (§4.1) groups exactly the stream a plain
    query would project.
    """
    root = lower_query(query, LowerSpec())
    root.open(ExecContext(evaluator))
    try:
        yield from root.bindings()
    finally:
        root.close()


def pipeline_stages(root: Operator) -> List[Operator]:
    """Scan and conjunct operators in execution (deepest-first) order."""
    stages: List[Operator] = []
    _collect_stages(root, stages)
    return stages


def _collect_stages(op: Operator, stages: List[Operator]) -> None:
    # A module function, not a self-referencing closure: the closure
    # would be a reference cycle per call.
    for child in op.children:
        _collect_stages(child, stages)
    if op.statement is not None:
        return  # a whole-statement root is not a pipeline stage
    if isinstance(op, (ScanOperator, CondOperator)):
        stages.append(op)


def stage_trace(root: Operator) -> List[int]:
    """Logical stream size after each stage — the explain() actuals."""
    return [op.rows_out for op in pipeline_stages(root) if op.executed]


def tree_dict(op: Operator) -> Dict[str, object]:
    """The instrumented tree as plain data (for JSON and the goldens)."""
    data: Dict[str, object] = {
        "operator": op.name,
        "label": op.label,
        "rows_in": op.rows_in,
        "rows_out": op.rows_out,
        "batches": op.batches_out,
        "rows_per_batch": (
            round(op.rows_out / op.batches_out, 1) if op.batches_out else 0.0
        ),
        "cache_hits": op.cache_hits,
        "time_ms": round(op.wall_seconds * 1000.0, 3),
    }
    derefs = getattr(op, "derefs", 0)
    if derefs:
        data["derefs"] = derefs
        data["derefs_per_batch"] = (
            round(derefs / op.batches_out, 1)
            if op.batches_out
            else float(derefs)
        )
        data["direction"] = getattr(op, "direction", "forward")
    if op.detail:
        data["detail"] = op.detail
    if op.estimated_rows is not None:
        data["estimated_rows"] = round(op.estimated_rows, 1)
    kids = [tree_dict(child) for child in op.children]
    if kids:
        data["children"] = kids
    return data


def render_tree(data: Mapping[str, object], indent: int = 0) -> List[str]:
    """Render a :func:`tree_dict` snapshot as indented text lines."""
    est = (
        f" est={data['estimated_rows']:g}"
        if "estimated_rows" in data
        else ""
    )
    label = f" {data['label']}" if data.get("label") else ""
    derefs = (
        f"{data['direction']} derefs={data['derefs']} "
        f"derefs/batch={data['derefs_per_batch']:g} "
        if "derefs" in data
        else ""
    )
    line = (
        f"{'  ' * indent}{data['operator']}{label} "
        f"[{est.strip() + ' ' if est else ''}act={data['rows_out']} "
        f"in={data['rows_in']} batches={data['batches']} "
        f"rows/batch={data.get('rows_per_batch', 0):g} {derefs}"
        f"cache_hits={data['cache_hits']} time={data['time_ms']}ms]"
    )
    lines = [line]
    detail = data.get("detail")
    if detail:
        lines.append(f"{'  ' * (indent + 1)}· {detail}")
    for child in data.get("children", ()):  # type: ignore[union-attr]
        lines.extend(render_tree(child, indent + 1))
    return lines
