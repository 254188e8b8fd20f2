"""A greedy, type-free conjunct planner.

§6.2 derives evaluation orders from *types* (coherent execution plans).
Real engines also reorder by plain *boundness*: evaluate the conjuncts
whose variables are already bound first, so nothing is enumerated blindly.
This module implements that untyped baseline — the benchmark harness
compares it against the Theorem 6.1 plan to show how much of the typed
optimizer's win is recoverable without any schema knowledge (and what
only the typed ranges can add: instantiation restriction).

Reordering is applied only to pure conjunctions (no nested updates — §5
fixes their left-to-right order) and never changes the declarative
semantics: conjunction is commutative for side-effect-free conditions.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.oid import Oid, Variable
from repro.xsql import ast
from repro.xsql.normalize import rewrite_variables

__all__ = ["GreedyPlanner"]


def _cond_has_updates(cond: ast.Cond) -> bool:
    if isinstance(cond, ast.UpdateCond):
        return True
    if isinstance(cond, (ast.AndCond, ast.OrCond)):
        return any(_cond_has_updates(item) for item in cond.items)
    if isinstance(cond, ast.NotCond):
        return _cond_has_updates(cond.item)
    return False


def _flatten(cond: Optional[ast.Cond]) -> List[ast.Cond]:
    if cond is None:
        return []
    if isinstance(cond, ast.AndCond):
        flattened: List[ast.Cond] = []
        for item in cond.items:
            flattened.extend(_flatten(item))
        return flattened
    return [cond]


def _cond_variables(cond: ast.Cond) -> Set[Variable]:
    return set(ast.cond_variables(cond))


class GreedyPlanner:
    """Orders conjuncts so bound-variable conditions run first."""

    def plan_where(
        self, conjuncts: List[ast.Cond], seed: Set[Variable]
    ) -> List[ast.Cond]:
        # Each conjunct's variables are collected once, not per round.
        remaining = [(cond, _cond_variables(cond)) for cond in conjuncts]
        bound = set(seed)
        ordered: List[ast.Cond] = []
        while remaining:
            best_index = min(
                range(len(remaining)),
                key=lambda i: self._score(*remaining[i], bound),
            )
            chosen, variables = remaining.pop(best_index)
            ordered.append(chosen)
            bound |= variables
        return ordered

    def _score(
        self, cond: ast.Cond, variables: Set[Variable], bound: Set[Variable]
    ) -> Tuple:
        """Lower scores run earlier.

        The primary key is the number of *blind* enumeration points the
        condition would cause right now: an unbound path head costs the
        whole universe; unbound comparison variables likewise.  Path
        conditions are preferred over comparisons at equal cost because
        they *bind* variables for later conjuncts.
        """
        unbound = variables - bound
        if isinstance(cond, ast.PathCond):
            head = cond.path.head
            head_blind = int(
                isinstance(head, Variable) and head not in bound
            )
            return (head_blind, len(unbound), 0)
        if isinstance(cond, ast.SchemaCond):
            # class universes are tiny; schedule by unbound count only.
            return (0, len(unbound), 1)
        if isinstance(cond, ast.Comparison):
            # comparisons filter; with unbound variables they enumerate.
            return (int(bool(unbound)), len(unbound), 2)
        # negation last: it tests, never binds.
        return (int(bool(unbound)), len(unbound), 3)

    # ------------------------------------------------------------------

    def applicable(self, query: ast.Query) -> bool:
        if query.where is None:
            return False
        if _cond_has_updates(query.where):
            return False
        return True

    def reorder(self, query: ast.Query) -> ast.Query:
        """Reorder the WHERE conjunction by boundness (semantics-neutral)."""
        if not self.applicable(query):
            return query
        seed: Set[Variable] = {decl.var for decl in query.from_}
        seed.update(
            decl.cls for decl in query.from_ if isinstance(decl.cls, Variable)
        )
        conjuncts = _flatten(query.where)
        if len(conjuncts) <= 1:
            return query
        ordered = self.plan_where(conjuncts, seed)
        where: ast.Cond = (
            ordered[0] if len(ordered) == 1 else ast.AndCond(tuple(ordered))
        )
        return ast.Query(
            select=query.select,
            from_=query.from_,
            where=where,
            oid_vars=query.oid_vars,
            oid_scope=query.oid_scope,
        )
