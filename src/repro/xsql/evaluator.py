"""Query evaluation (paper §3.4, extended with methods in §5).

Two engines implement the same declarative semantics:

* :class:`Evaluator` — the production engine.  It streams variable
  bindings: FROM declarations seed the stream, each WHERE condition
  extends/filters it left-to-right (the order the paper prescribes for
  conjunctions containing updates, §5), and SELECT projects satisfying
  bindings into result tuples.  Variables that a condition cannot bind by
  walking (e.g. free variables of a comparison) are enumerated over their
  sort universes, so the engine is *complete* for the naive semantics, not
  just for range-restricted queries.

* :class:`NaiveEvaluator` — the literal §3.4 procedure: enumerate every
  sort-respecting substitution of oids for variables, keep those consistent
  with FROM, boolean-evaluate WHERE, evaluate SELECT.  Exponential, but an
  executable specification — the test suite checks ``Evaluator`` against it
  on small databases.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.datamodel.store import ObjectStore
from repro.errors import QueryError, UnsafeQueryError
from repro.oid import Atom, Oid, Value, Variable, VarSort, term_sort_key
from repro.xsql import ast
from repro.xsql.aggregates import apply_aggregate
from repro.xsql.comparisons import compare
from repro.xsql.paths import Bindings, PathWalker, resolve_term
from repro.xsql.result import QueryResult

__all__ = [
    "Evaluator",
    "NaiveEvaluator",
    "check_projectable",
    "column_name",
    "dedup",
    "select_rows",
]


def _freeze_env(env: Bindings) -> Tuple:
    return tuple(
        sorted(env.items(), key=lambda kv: (kv[0].name, kv[0].sort.value))
    )


def dedup(stream: Iterator[Bindings]) -> Iterator[Bindings]:
    """The binding stream with repeated environments dropped, in order."""
    seen: Set[Tuple] = set()
    for env in stream:
        key = _freeze_env(env)
        if key not in seen:
            seen.add(key)
            yield env


def column_name(item: ast.SelectItem) -> str:
    """The result column a SELECT item produces."""
    if isinstance(item, ast.PathItem):
        return item.name or str(item.path)
    if isinstance(item, ast.SetItem):
        return item.name
    raise QueryError(f"unsupported SELECT item {item}")


def select_rows(
    walker: PathWalker, items: Sequence[ast.SelectItem], env: Bindings
) -> Iterator[Tuple[Oid, ...]]:
    """Expand SELECT items into result tuples under one binding.

    Items are walked jointly so variables shared between SELECT paths
    stay consistent; a set-shaped item contributes one tuple per
    element, "flattening" exactly like path expressions do (§1).
    """
    return _select_from(walker, items, 0, env, ())


def _select_from(
    walker: PathWalker,
    items: Sequence[ast.SelectItem],
    index: int,
    current: Bindings,
    acc: Tuple[Oid, ...],
) -> Iterator[Tuple[Oid, ...]]:
    # A module function, not a self-referencing closure: the closure
    # would be a reference cycle per call.
    if index == len(items):
        yield acc
        return
    item = items[index]
    if not isinstance(item, ast.PathItem):
        raise QueryError("set-attribute SELECT items require OID FUNCTION OF")
    for hit in walker.walk(item.path, current):
        yield from _select_from(
            walker, items, index + 1, hit.bindings(), acc + (hit.tail,)
        )


def check_projectable(query: ast.Query) -> None:
    """Reject queries whose SELECT does not produce a relation."""
    if query.creates_objects:
        raise QueryError(
            "object-creating queries must run through the session's "
            "view manager (they mint oids)"
        )
    if any(isinstance(item, ast.MethodItem) for item in query.select):
        raise QueryError(
            "method-defining SELECT items only appear inside "
            "ALTER CLASS statements"
        )


class Evaluator:
    """The binding-stream evaluator for XSQL queries."""

    def __init__(
        self,
        store: ObjectStore,
        id_function_instances=None,
        max_path_var_length: int = 6,
        restrictions: Optional[Dict[Variable, FrozenSet[Oid]]] = None,
        metrics=None,
        walker: Optional[PathWalker] = None,
    ) -> None:
        self.store = store
        # A caller may supply a shared (session-persistent) walker so its
        # ticket-stamped memo survives across runs; it must have been
        # built over the same store and restrictions.
        self.walker = walker if walker is not None else PathWalker(
            store,
            max_path_var_length=max_path_var_length,
            id_function_instances=id_function_instances,
            restrictions=restrictions,
            metrics=metrics,
        )
        self._restrictions = restrictions or {}
        self._metrics = metrics

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(
        self,
        query: Union[ast.Query, ast.QueryOp],
        initial: Optional[Bindings] = None,
    ) -> QueryResult:
        """Evaluate a relation-producing query (§3.3/§3.4).

        Object-creating queries (``OID FUNCTION OF``) are executed by
        :mod:`repro.views.creation`; method-defining queries by
        :mod:`repro.xsql.ddl`.
        """
        if isinstance(query, ast.QueryOp):
            left = self.run(query.left, initial)
            right = self.run(query.right, initial)
            if query.op == "union":
                return left.union(right)
            if query.op == "minus":
                return left.minus(right)
            return left.intersect(right)
        check_projectable(query)
        result = QueryResult([column_name(item) for item in query.select])
        for env in self.env_stream(query, initial):
            for row in select_rows(self.walker, query.select, env):
                result.add(row)
        return result

    # ------------------------------------------------------------------
    # the binding stream
    # ------------------------------------------------------------------

    def env_stream(
        self, query: ast.Query, initial: Optional[Bindings] = None
    ) -> Iterator[Bindings]:
        """All satisfying bindings of *query*'s FROM and WHERE clauses."""
        envs: Iterator[Bindings] = iter([dict(initial or {})])
        for decl in query.from_:
            envs = self._bind_from(decl, envs)
        if query.where is not None:
            envs = self._chain(query.where, envs)
        return dedup(envs)

    def _chain(
        self, cond: ast.Cond, envs: Iterator[Bindings]
    ) -> Iterator[Bindings]:
        for env in envs:
            yield from self.eval_cond(cond, env)

    def _bind_from(
        self, decl: ast.FromDecl, envs: Iterator[Bindings]
    ) -> Iterator[Bindings]:
        for env in envs:
            yield from self._bind_from_env(decl, env)

    def _bind_from_env(
        self, decl: ast.FromDecl, env: Bindings
    ) -> Iterator[Bindings]:
        for env1, cls in self._from_classes(decl, env):
            bound_var = env1.get(decl.var)
            if bound_var is not None:
                if self.store.is_instance(bound_var, cls):
                    yield env1
                continue
            candidates, admit = self._scan_candidates(decl, env1, cls)
            for obj in candidates:
                if not admit(obj):
                    continue
                env2 = dict(env1)
                env2[decl.var] = obj
                yield env2

    def _from_classes(
        self, decl: ast.FromDecl, env: Bindings
    ) -> Iterator[Tuple[Bindings, Atom]]:
        """Each admissible class for *decl* under *env*, with the class
        variable (when the FROM class is one) bound into a fresh env.

        The scan operator consumes this directly so its
        per-class candidate streams stay binding-identical to
        :meth:`_bind_from`.
        """
        cls_term = decl.cls
        class_candidates: List[Atom]
        if isinstance(cls_term, Variable):
            bound = env.get(cls_term)
            if bound is not None:
                class_candidates = [bound]  # type: ignore[list-item]
            else:
                class_candidates = self.walker.universe(VarSort.CLASS)
        else:
            class_candidates = [cls_term]
        for cls in class_candidates:
            if cls not in self.store.hierarchy:
                continue
            env1 = dict(env)
            if isinstance(cls_term, Variable):
                env1[cls_term] = cls
            yield env1, cls

    def _scan_candidates(
        self, decl: ast.FromDecl, env1: Bindings, cls: Atom
    ) -> Tuple[Sequence[Atom], "Callable[[Atom], bool]"]:
        """The ordered candidate stream for one scan, plus its admission
        predicate, which the scan operator applies in order."""
        restriction = self.walker.restriction_for(decl.var)
        if restriction is not None and len(restriction) * 4 <= max(
            1, self.store.extent_estimate(cls)
        ):
            # A restriction much smaller than the extent (an index
            # probe, typically): membership-check the restricted
            # candidates instead of scanning the whole extent.
            # Identical result set — restriction ∩ extent either way.
            if self._metrics is not None:
                self._metrics.count("scan.restricted_from")
            return (
                self.walker.variable_candidates(decl.var),
                lambda obj: self.store.is_instance(obj, cls),
            )
        if self._metrics is not None:
            self._metrics.count("scan.extent")
        return (
            self.walker.extent_sorted(cls),
            lambda obj: self.walker.admits(decl.var, obj),
        )

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def eval_cond(self, cond: ast.Cond, env: Bindings) -> Iterator[Bindings]:
        if isinstance(cond, ast.PathCond):
            yield from self._eval_path_cond(cond, env)
        elif isinstance(cond, ast.Comparison):
            yield from self._eval_comparison(cond, env)
        elif isinstance(cond, ast.SchemaCond):
            yield from self._eval_schema_cond(cond, env)
        elif isinstance(cond, ast.AndCond):
            stream: Iterator[Bindings] = iter([env])
            for item in cond.items:
                stream = self._chain(item, stream)
            yield from dedup(stream)
        elif isinstance(cond, ast.OrCond):
            def branches() -> Iterator[Bindings]:
                for item in cond.items:
                    yield from self.eval_cond(item, env)

            yield from dedup(branches())
        elif isinstance(cond, ast.NotCond):
            yield from self._eval_not(cond, env)
        elif isinstance(cond, ast.UpdateCond):
            if self.execute_update(cond.update, env):
                yield env
        else:
            raise QueryError(f"unsupported condition {cond!r}")

    def _eval_path_cond(
        self, cond: ast.PathCond, env: Bindings
    ) -> Iterator[Bindings]:
        head = cond.path.head
        if (
            isinstance(head, ast.App)
            and cond.path.is_trivial
            and head.functor in self.store.relations()
        ):
            yield from self._eval_relation_membership(head, env)
            return
        seen: Set[Tuple] = set()
        for hit in self.walker.walk(cond.path, env):
            key = hit.env
            if key not in seen:
                seen.add(key)
                yield hit.bindings()

    def _eval_relation_membership(
        self, head: ast.App, env: Bindings
    ) -> Iterator[Bindings]:
        """First-class relations as predicates in WHERE (§2 "Relations")."""
        relation = self.store.relation(head.functor)
        for row in relation:
            new_env = dict(env)
            if PathWalker._unify_args(
                tuple(resolve_term(a, env) for a in head.args), row, new_env
            ):
                yield new_env

    def _eval_schema_cond(
        self, cond: ast.SchemaCond, env: Bindings
    ) -> Iterator[Bindings]:
        def candidates(
            term: object, universe: List[Oid], current: Bindings
        ) -> Iterator[Tuple[Bindings, Oid]]:
            resolved = resolve_term(term, current)
            if isinstance(resolved, Oid):
                yield current, resolved
            elif isinstance(resolved, Variable):
                for item in universe:
                    yield {**current, resolved: item}, item
            else:
                raise QueryError(f"bad schema-condition term {term!r}")

        if cond.kind == "applicableTo":
            yield from self._eval_applicable_to(cond, env)
            return
        classes = self.walker.universe(VarSort.CLASS)
        if cond.kind == "subclassOf":
            left_universe: List[Oid] = classes
        else:
            left_universe = self.walker.universe(VarSort.INDIVIDUAL)
        for env1, left_obj in candidates(cond.left, left_universe, env):
            # The right side resolves under env1, so a shared variable
            # unifies instead of being enumerated twice.
            for env2, right_obj in candidates(cond.right, classes, env1):
                if not isinstance(right_obj, Atom):
                    continue
                if cond.kind == "subclassOf":
                    holds = isinstance(
                        left_obj, Atom
                    ) and self.store.hierarchy.is_subclass(
                        left_obj, right_obj, strict=True
                    )
                else:
                    holds = self.store.is_instance(left_obj, right_obj)
                if holds:
                    yield env2

    def _eval_applicable_to(
        self, cond: ast.SchemaCond, env: Bindings
    ) -> Iterator[Bindings]:
        """``M applicableTo X``: X lies within some signature's scope of M.

        §2 distinguishes *applicable* from *defined*: an attribute can be
        applicable (a signature covers the object's classes) yet have a
        null value.  §3.1 motivates querying applicability and defers the
        mechanism to [KSK92]; this condition is that mechanism.
        """
        method_term = resolve_term(cond.left, env)
        obj_term = resolve_term(cond.right, env)

        def applicable(method: Oid, obj: Oid) -> bool:
            if not isinstance(method, Atom):
                return False
            classes = self.store.classes_of(obj)
            return any(
                cls in self.store.hierarchy
                and self.store.declared_signatures(cls, method)
                for cls in classes
            )

        methods = (
            [method_term]
            if isinstance(method_term, Oid)
            else self.walker.universe(VarSort.METHOD)
        )
        for method in methods:
            env1 = dict(env)
            if isinstance(method_term, Variable):
                env1[method_term] = method
            objects = (
                [resolve_term(cond.right, env1)]
                if isinstance(obj_term, Oid)
                else self.walker.universe(VarSort.INDIVIDUAL)
            )
            for obj in objects:
                if not isinstance(obj, Oid):
                    continue
                if applicable(method, obj):
                    env2 = dict(env1)
                    if isinstance(obj_term, Variable):
                        env2[obj_term] = obj
                    yield env2

    # -- comparisons ------------------------------------------------------

    def _enumerate_vars(
        self, variables: List[Variable], env: Bindings
    ) -> Iterator[Bindings]:
        unbound = [v for v in dict.fromkeys(variables) if v not in env]
        if not unbound:
            yield env
            return
        for var in unbound:
            if var.sort == VarSort.PATH:
                raise UnsafeQueryError(
                    f"path variable {var} must be bound by a path "
                    f"expression before it is used in a comparison"
                )
        universes = [self.walker.variable_candidates(v) for v in unbound]
        for combo in itertools.product(*universes):
            new_env = dict(env)
            new_env.update(zip(unbound, combo))
            yield new_env

    @staticmethod
    def _single_unbound_var(
        operand: ast.Operand, env: Bindings
    ) -> Optional[Variable]:
        """The operand's variable, if it is a bare unbound variable."""
        if (
            isinstance(operand, ast.PathOperand)
            and operand.path.is_trivial
            and isinstance(operand.path.head, Variable)
            and operand.path.head not in env
        ):
            return operand.path.head
        return None

    def _eval_comparison(
        self, cond: ast.Comparison, env: Bindings
    ) -> Iterator[Bindings]:
        # Fast path: `Z = <set>` with Z unbound and existential reading is
        # membership — bind Z from the set instead of enumerating the
        # universe and testing each candidate.  (Semantically identical:
        # the ground instance z = some S holds iff z ∈ S.)
        if cond.op == "=" and cond.rq in (None, "some"):
            bind_var = self._single_unbound_var(cond.lhs, env)
            other = cond.rhs
            if bind_var is None and cond.lq in (None, "some"):
                bind_var = self._single_unbound_var(cond.rhs, env)
                other = cond.lhs
            if bind_var is not None and not list(
                ast.compared_variables(other)
            ):
                for value in sorted(
                    self.eval_operand(other, env), key=term_sort_key
                ):
                    if not self.walker.admits(bind_var, value):
                        continue
                    if not self._sort_admits(bind_var, value):
                        continue
                    yield {**env, bind_var: value}
                return
        variables = list(ast.compared_variables(cond.lhs))
        variables.extend(ast.compared_variables(cond.rhs))
        for full_env in self._enumerate_vars(variables, env):
            left = self.eval_operand(cond.lhs, full_env)
            right = self.eval_operand(cond.rhs, full_env)
            if compare(cond.op, left, right, cond.lq, cond.rq):
                yield full_env

    def _sort_admits(self, var: Variable, value: Oid) -> bool:
        """Would *value* appear in *var*'s sort universe?"""
        if var.sort == VarSort.CLASS:
            return self.store.catalogue.is_class(value)
        if var.sort == VarSort.INDIVIDUAL:
            return not self.store.catalogue.is_class(value)
        return isinstance(value, Atom)

    def _eval_not(self, cond: ast.NotCond, env: Bindings) -> Iterator[Bindings]:
        """Ground-instance negation (§3.4).

        Every variable of the negated condition is enumerated; a grounding
        satisfies ``not C`` iff ``C`` is false under it.  This matches the
        naive semantics, where negation applies to fully substituted
        instances.
        """
        variables = list(ast.cond_variables(cond.item))
        for full_env in self._enumerate_vars(variables, env):
            if not self.cond_holds(cond.item, full_env):
                yield full_env

    def cond_holds(self, cond: ast.Cond, env: Bindings) -> bool:
        """Boolean truth of a condition under a (sufficiently) full binding."""
        return any(True for _ in self.eval_cond(cond, env))

    # ------------------------------------------------------------------
    # operands
    # ------------------------------------------------------------------

    def eval_operand(
        self, operand: ast.Operand, env: Bindings
    ) -> FrozenSet[Oid]:
        if isinstance(operand, ast.PathOperand):
            return self.walker.value(operand.path, env)
        if isinstance(operand, ast.AggOperand):
            values = self.walker.value(operand.path, env)
            return frozenset({apply_aggregate(operand.fn, values)})
        if isinstance(operand, ast.SetLitOperand):
            return frozenset(operand.values)
        if isinstance(operand, ast.SubQueryOperand):
            return self._eval_subquery(operand, env)
        if isinstance(operand, ast.SetOpOperand):
            left = self.eval_operand(operand.left, env)
            right = self.eval_operand(operand.right, env)
            if operand.op == "union":
                return left | right
            if operand.op == "minus":
                return left - right
            return left & right
        if isinstance(operand, ast.ArithOperand):
            return self._eval_arith(operand, env)
        raise QueryError(f"unsupported operand {operand!r}")

    def _eval_subquery(
        self, operand: ast.SubQueryOperand, env: Bindings
    ) -> FrozenSet[Oid]:
        """Evaluate a correlated subquery, memoized per correlation key.

        A subquery's result depends only on the bindings of its free
        variables (locals are re-bound inside), so its answer goes into
        the walker memo under a ``"subquery"`` token, keyed on those
        bindings, and lasts across runs.  The memo is stamped with the
        store's mutation ticket, so an ``UPDATE`` earlier in the same
        WHERE clause, or any write between runs, drops it before the
        next lookup.
        """
        key_vars = tuple(dict.fromkeys(ast.free_variables(operand.query)))
        key = tuple(env.get(var) for var in key_vars)
        return self.walker.memoized(
            "subquery",
            operand,
            key_vars,
            (key,),
            lambda _projection: self.run(operand.query, env).single_column(),
        )[key]

    def _eval_arith(
        self, operand: ast.ArithOperand, env: Bindings
    ) -> FrozenSet[Oid]:
        left = self.eval_operand(operand.left, env)
        right = self.eval_operand(operand.right, env)
        results: Set[Oid] = set()
        for lv in left:
            for rv in right:
                ln = _number(lv)
                rn = _number(rv)
                if ln is None or rn is None:
                    raise QueryError(
                        f"arithmetic needs numerals, got {lv} {operand.op} {rv}"
                    )
                if operand.op == "+":
                    value = ln + rn
                elif operand.op == "-":
                    value = ln - rn
                elif operand.op == "*":
                    value = ln * rn
                elif operand.op == "/":
                    if rn == 0:
                        raise QueryError("division by zero")
                    value = ln / rn
                else:  # pragma: no cover - parser restricts operators
                    raise QueryError(f"unknown arithmetic {operand.op!r}")
                # Snap float noise so 1.1 * 90000 is 99000, not 99000.00...1:
                # salaries and counts are integral objects in the paper.
                if abs(value - round(value)) < 1e-9:
                    value = int(round(value))
                results.add(Value(value))
        return frozenset(results)

    # ------------------------------------------------------------------
    # updates (§5)
    # ------------------------------------------------------------------

    def execute_update(
        self, update: ast.UpdateClass, env: Optional[Bindings] = None
    ) -> bool:
        """Execute ``UPDATE CLASS C SET path = expr``; True on success.

        For each assignment, the path up to its last step is walked under
        the current bindings; the final attribute of each reached object is
        set to the value of the right-hand side.  "An UPDATE clause
        evaluates to true if and only if the update was successful" — here,
        success means no error was raised while applying the assignments.
        """
        env = dict(env or {})
        cls = Atom(update.cls)
        self.store.hierarchy.require(cls)
        for path, expr in update.assignments:
            if not path.steps:
                raise QueryError("an UPDATE path needs at least one step")
            last = path.steps[-1]
            if not isinstance(last.method_expr.method, Atom):
                raise QueryError(
                    "the updated attribute must be a method name"
                )
            if last.selector is not None:
                raise QueryError(
                    "the updated attribute cannot carry a selector"
                )
            method = last.method_expr.method
            prefix = ast.PathExpr(head=path.head, steps=path.steps[:-1])
            targets: List[Tuple[Bindings, Oid]] = [
                (hit.bindings(), hit.tail)
                for hit in self.walker.walk(prefix, env)
            ]
            for hit_env, target in targets:
                for _env2, arg_tuple in self.walker._arg_candidates(
                    last.method_expr.args, hit_env
                ):
                    values = self.eval_operand(expr, _env2)
                    if self._assign(target, method, arg_tuple, values):
                        break
        return True

    def _assign(
        self,
        target: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        values: FrozenSet[Oid],
    ) -> bool:
        set_valued = self._method_declared_set_valued(target, method)
        if set_valued:
            self.store.set_attr_set(target, method, values, args)
            return True
        if len(values) > 1:
            raise QueryError(
                f"cannot assign {len(values)} values to scalar "
                f"attribute {method} of {target}"
            )
        if values:
            self.store.set_attr(target, method, next(iter(values)), args)
        else:
            self.store.unset_attr(target, method, args)
        return True

    def _method_declared_set_valued(self, target: Oid, method: Atom) -> bool:
        for cls in self.store.classes_of(target):
            if cls not in self.store.hierarchy:
                continue
            for signature in self.store.signatures_of(cls, method):
                if signature.set_valued:
                    return True
        return False


def _number(term: Oid) -> Optional[float]:
    if isinstance(term, Value) and isinstance(term.value, (int, float)) \
            and not isinstance(term.value, bool):
        return float(term.value)
    return None


class NaiveEvaluator:
    """The literal §3.4 semantics: enumerate all substitutions.

    Used as the semantic oracle in tests.  Updates are not supported —
    enumerating substitutions interleaved with side effects is not part of
    the declarative fragment the naive procedure defines.
    """

    def __init__(self, store: ObjectStore, id_function_instances=None) -> None:
        self.store = store
        self._inner = Evaluator(store, id_function_instances)

    def run(self, query: ast.Query) -> QueryResult:
        for var in ast.free_variables(query):
            if var.sort == VarSort.PATH:
                raise UnsafeQueryError(
                    "the naive evaluator does not enumerate path variables"
                )
        if query.creates_objects or query.oid_scope is not None:
            raise QueryError("the naive evaluator runs plain queries only")
        variables = list(dict.fromkeys(ast.free_variables(query)))
        result = QueryResult([column_name(item) for item in query.select])
        universes = [self._inner.walker.universe(v.sort) for v in variables]
        for combo in itertools.product(*universes):
            env: Bindings = dict(zip(variables, combo))
            if not self._from_consistent(query, env):
                continue
            if query.where is not None and not self._holds(query.where, env):
                continue
            for row in self._select_rows(query.select, env):
                result.add(row)
        return result

    def _from_consistent(self, query: ast.Query, env: Bindings) -> bool:
        for decl in query.from_:
            cls = env[decl.cls] if isinstance(decl.cls, Variable) else decl.cls
            if not isinstance(cls, Atom) or cls not in self.store.hierarchy:
                return False
            if not self.store.is_instance(env[decl.var], cls):
                return False
        return True

    def _holds(self, cond: ast.Cond, env: Bindings) -> bool:
        if isinstance(cond, ast.AndCond):
            return all(self._holds(c, env) for c in cond.items)
        if isinstance(cond, ast.OrCond):
            return any(self._holds(c, env) for c in cond.items)
        if isinstance(cond, ast.NotCond):
            return not self._holds(cond.item, env)
        if isinstance(cond, ast.UpdateCond):
            raise QueryError("naive evaluation does not execute updates")
        return self._inner.cond_holds(cond, env)

    def _select_rows(
        self, items: Sequence[ast.SelectItem], env: Bindings
    ) -> Iterator[Tuple[Oid, ...]]:
        value_sets = []
        for item in items:
            if not isinstance(item, ast.PathItem):
                raise QueryError("naive evaluation projects paths only")
            value_sets.append(
                sorted(
                    self._inner.walker.value(item.path, env),
                    key=term_sort_key,
                )
            )
        yield from itertools.product(*value_sets)
