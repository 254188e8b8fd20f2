"""The Theorem 6.1 optimizer: typed, range-restricted evaluation.

Theorem 6.1: for a strictly well-typed query with coherent pair (A, P),

1. evaluating with respect to any coherent plan yields the same result;
2. "it suffices to consider only those instantiations o of X such that
   o ∈ A(X), for every v-selector X in Q."

"This potentially very powerful optimization is not possible with untyped
queries and is not always possible even with queries that are liberally
(but not strictly) well-typed."

The two halves are two lowering inputs of the operator tree
(:mod:`repro.xsql.operators`): :func:`reorder` sequences the WHERE
conjuncts along the coherent plan, and :func:`extent_restrictions`
builds, from the :func:`range_classes` of the assignment, the
per-variable instantiation sets that become ``RestrictedScan`` inputs.
``Session.query(text, plan="typed")`` applies both; the test suite
checks its answers against ``plan="none"`` and the naive evaluator, and
the benchmarks measure the speedup as the database grows.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.datamodel.hierarchy import OBJECT_CLASS
from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Oid, Variable
from repro.typing.assignments import TypeAssignment
from repro.typing.occurrences import TypedQuery, flatten_conjunction
from repro.typing.plans import ExecutionPlan
from repro.xsql import ast

__all__ = ["extent_restrictions", "range_classes", "reorder"]


def range_classes(
    store: ObjectStore,
    assignment: TypeAssignment,
    typed_query: TypedQuery,
) -> Dict[Variable, List[Atom]]:
    """The classes of each variable's range A(X) that can restrict it.

    ``Object`` imposes nothing and classes the store's hierarchy does not
    know cannot be scanned, so both are dropped; a variable left with no
    class is omitted.  Ranges depend only on the schema, so callers may
    keep the result for as long as the store publishes the same schema
    value.
    """
    classes_by_var: Dict[Variable, List[Atom]] = {}
    for var, range_ in assignment.all_ranges(typed_query).items():
        classes = [
            cls
            for cls in range_.sorted_classes()
            if cls != OBJECT_CLASS and cls in store.hierarchy
        ]
        if classes:
            classes_by_var[var] = classes
    return classes_by_var


def extent_restrictions(
    store: ObjectStore,
    classes_by_var: Mapping[Variable, Sequence[Atom]],
    query: ast.Query,
    skip: FrozenSet[Variable] = frozenset(),
) -> Dict[Variable, FrozenSet[Oid]]:
    """Per-variable instantiation sets from the ranges A(X).

    *classes_by_var* is :func:`range_classes` of the query's coherent
    assignment.  An oid is in A(X) iff it is an instance of every class
    of the range; the allowed set is the intersection of those extents.

    Each range class costs one ``store.extent``: O(extent) for a
    user class, a scan of the active domain for a literal class.
    Restrictions are an optimization, never needed for correctness
    (Theorem 6.1 part 1), so callers that already restrict a
    variable some cheaper way — e.g. the cost pipeline's index
    probes — may list it in ``skip`` to avoid building its extents.
    """
    query_vars = set(ast.free_variables(query))
    restrictions: Dict[Variable, FrozenSet[Oid]] = {}
    for var, classes in classes_by_var.items():
        if var not in query_vars or var in skip:
            continue
        allowed: Optional[FrozenSet[Oid]] = None
        for cls in classes:
            extent = store.extent(cls)
            allowed = extent if allowed is None else allowed & extent
        if allowed is not None:
            restrictions[var] = allowed
    return restrictions


def reorder(
    query: ast.Query,
    typed_query: TypedQuery,
    plan: ExecutionPlan,
) -> ast.Query:
    """Reorder WHERE conjuncts along the coherent plan.

    Path-expression conjuncts are sequenced by the plan; comparisons
    and schema conditions follow, in their original relative order
    (their variables are bound by then — that is exactly what
    coherence guarantees).  Reordering a pure conjunction never
    changes the declarative §3.4 semantics.
    """
    conjuncts = flatten_conjunction(query.where)
    if not conjuncts:
        return query
    source_by_plan: List[int] = []
    for path_index in plan.order:
        source = typed_query.path_sources[path_index]
        if source is not None and source not in source_by_plan:
            source_by_plan.append(source)
    path_positions = set(source_by_plan)
    ordered: List[ast.Cond] = [conjuncts[i] for i in source_by_plan]
    ordered.extend(
        cond
        for position, cond in enumerate(conjuncts)
        if position not in path_positions
    )
    where: ast.Cond
    if len(ordered) == 1:
        where = ordered[0]
    else:
        where = ast.AndCond(tuple(ordered))
    return ast.Query(
        select=query.select,
        from_=query.from_,
        where=where,
        oid_vars=query.oid_vars,
        oid_scope=query.oid_scope,
    )
