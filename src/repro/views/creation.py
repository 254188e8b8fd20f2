"""Execution of object-creating queries (paper §4.1).

For each satisfying binding of the query's FROM/WHERE, the bindings of the
``OID FUNCTION OF`` variables form a *group key*; one new object with oid
``f(key)`` is created per group.  Within a group:

* a scalar SELECT item must evaluate to the same single value in every
  binding — "two tuples with distinct salaries in the same company are two
  conflicting descriptions of the same object.  We view this situation as
  an ill-defined query (a run-time error)";
* a set-shaped SELECT item contributes the union of its values;
* a ``{W}`` item collects the bindings of ``W`` across the group — "the
  clause OID FUNCTION OF can play the role of the GROUP BY clause of SQL".

The executor also records, per created object and attribute, the *base
derivation* (which base object/method the value was read from) whenever it
is unambiguous; :mod:`repro.views.views` uses these derivations to
translate view updates into database updates (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import IllDefinedQueryError, QueryError, UnsafeQueryError
from repro.oid import Atom, FuncOid, Oid, term_sort_key
from repro.views.id_functions import IdFunctionRegistry
from repro.xsql import ast, operators
from repro.xsql.evaluator import Evaluator
from repro.xsql.paths import Bindings

__all__ = [
    "CreationOutcome",
    "Derivation",
    "execute_creation",
    "materialize_group",
]


@dataclass(frozen=True)
class Derivation:
    """Where a view attribute's value came from in the base database."""

    target: Oid
    method: Atom
    args: Tuple[Oid, ...] = ()


@dataclass
class CreationOutcome:
    """Everything a creating query produced."""

    functor: str
    created: List[FuncOid] = field(default_factory=list)
    # (created oid, attribute name) -> unambiguous base derivation
    derivations: Dict[Tuple[FuncOid, str], Derivation] = field(
        default_factory=dict
    )
    # created oid -> the satisfying bindings of its group, in evaluation
    # order; incremental view maintenance re-derives one group's
    # attributes from exactly these envs (repro.views.maintenance).
    groups: Dict[FuncOid, List[Bindings]] = field(default_factory=dict)


def _item_name(item: ast.SelectItem) -> str:
    if isinstance(item, ast.PathItem):
        if item.name is None:
            raise QueryError(
                "object-creating queries must name every attribute "
                "(Attr = path)"
            )
        return item.name
    if isinstance(item, ast.SetItem):
        return item.name
    raise QueryError(f"unsupported SELECT item in a creating query: {item}")


def _evaluate_item_for_env(
    evaluator: Evaluator, path: ast.PathExpr, env: Bindings
) -> Tuple[FrozenSet[Oid], bool, Optional[Derivation]]:
    """Value set, shape flag, and (if determinable) the base derivation."""
    values, shaped = evaluator.walker.value_kinded(path, env)
    derivation: Optional[Derivation] = None
    if path.steps and isinstance(path.steps[-1].method_expr.method, Atom):
        last = path.steps[-1]
        prefix = ast.PathExpr(head=path.head, steps=path.steps[:-1])
        targets = {hit.tail for hit in evaluator.walker.walk(prefix, env)}
        if len(targets) == 1:
            target = next(iter(targets))
            args = tuple(
                a for a in last.method_expr.args if isinstance(a, Oid)
            )
            if len(args) == len(last.method_expr.args):
                derivation = Derivation(
                    target, last.method_expr.method, args
                )
    return values, shaped, derivation


def execute_creation(
    evaluator: Evaluator,
    query: ast.Query,
    functor: str,
    registry: IdFunctionRegistry,
    member_classes: Sequence[str] = (),
    declared_set_valued: Optional[Dict[str, bool]] = None,
) -> CreationOutcome:
    """Run an ``OID FUNCTION OF`` query, creating objects in the store.

    The groups come from the binding stage of the query's operator tree
    (:func:`repro.xsql.operators.bindings`).
    """
    if query.oid_vars is None:
        raise QueryError("not an object-creating query (no OID FUNCTION OF)")
    declared_set_valued = declared_set_valued or {}
    store = evaluator.store

    groups: Dict[Tuple[Oid, ...], List[Bindings]] = {}
    order: List[Tuple[Oid, ...]] = []
    for env in operators.bindings(query, evaluator):
        key_parts: List[Oid] = []
        for var in query.oid_vars:
            bound = env.get(var)
            if not isinstance(bound, Oid):
                raise UnsafeQueryError(
                    f"OID FUNCTION OF variable {var} is not bound by the "
                    f"query"
                )
            key_parts.append(bound)
        key = tuple(key_parts)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(env)

    outcome = CreationOutcome(functor=functor)
    for key in sorted(order, key=lambda k: tuple(term_sort_key(v) for v in k)):
        envs = groups[key]
        oid = registry.record(functor, key)
        store.create_object(oid, classes=member_classes)
        materialize_group(
            evaluator, query, oid, envs, declared_set_valued, outcome
        )
        outcome.created.append(oid)
        outcome.groups[oid] = envs
    return outcome


def materialize_group(
    evaluator: Evaluator,
    query: ast.Query,
    oid: FuncOid,
    envs: Sequence[Bindings],
    declared_set_valued: Dict[str, bool],
    outcome: CreationOutcome,
) -> None:
    """Derive (or re-derive) one created object's attributes from its group.

    Shared by initial materialization and incremental view maintenance:
    the group's satisfying bindings are fixed, so only the SELECT-derived
    values are recomputed and written.  A scalar attribute that lost its
    value is unset rather than left stale.
    """
    store = evaluator.store
    for item in query.select:
        name = _item_name(item)
        attribute = Atom(name)
        if isinstance(item, ast.SetItem):
            members: Set[Oid] = set()
            for env in envs:
                bound = env.get(item.var)
                if isinstance(bound, Oid):
                    members.add(bound)
            store.set_attr_set(oid, attribute, members)
            continue
        assert isinstance(item, ast.PathItem)
        per_env = [
            _evaluate_item_for_env(evaluator, item.path, env)
            for env in envs
        ]
        shaped = any(flag for _v, flag, _d in per_env)
        if name in declared_set_valued:
            shaped = declared_set_valued[name]
        if shaped:
            union: Set[Oid] = set()
            for values, _flag, _d in per_env:
                union |= values
            store.set_attr_set(oid, attribute, union)
        else:
            scalars = {
                value for values, _f, _d in per_env for value in values
            }
            if len(scalars) > 1:
                raise IllDefinedQueryError(
                    f"attribute {name} of {oid} received "
                    f"{len(scalars)} conflicting values: the "
                    f"id-function must depend on more variables (§4.1)"
                )
            if scalars:
                store.set_attr(oid, attribute, next(iter(scalars)))
            elif store.explicit_cell(oid, attribute) is not None:
                store.unset_attr(oid, attribute)
            derivations = {
                d for _v, _f, d in per_env if d is not None
            }
            if len(derivations) == 1:
                outcome.derivations[(oid, name)] = next(iter(derivations))
            else:
                outcome.derivations.pop((oid, name), None)
