"""Quantified comparisons over path-expression values (paper §3.2).

"Since path expressions represent sets, these comparators may have to be
modified with the quantifiers ``some`` or ``all``."  A comparison
``L lq-op-rq R`` holds iff

    Q_l x in value(L) . Q_r y in value(R) . x op y

where a missing quantifier defaults to ``some`` — on singleton values (the
common case the paper leaves unquantified) ``some`` and ``all`` coincide.
``all`` over an empty set is vacuously true, which is exactly the reading
query (13) relies on ("a set that contains only numerals greater than
$200,000" — an empty set qualifies); ``some`` over an empty set is false.

Set comparators ``contains``/``containsEq``/``subset``/``subsetEq`` compare
the two values as whole sets.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, Optional

from repro.errors import QueryError
from repro.oid import Oid, Value

__all__ = [
    "compare", "element_compare", "ground_test", "ELEMENT_OPS", "SET_OPS",
]


def _numeric(term: Oid) -> Optional[float]:
    if isinstance(term, Value) and isinstance(term.value, (int, float)):
        if isinstance(term.value, bool):
            return None
        return float(term.value)
    return None


def _text(term: Oid) -> Optional[str]:
    if isinstance(term, Value) and isinstance(term.value, str):
        return term.value
    return None


def element_compare(op: str, left: Oid, right: Oid) -> bool:
    """Compare two objects with one elementary comparator.

    Equality is oid equality (the language "manipulates objects, and not
    the values they encapsulate" — but literal objects *are* their values,
    so ``Value(20) == Value(20)``).  Ordering comparators apply to pairs of
    numerals or pairs of strings; an incomparable pair simply fails the
    comparison, matching the metalogical treatment of typing in §6.2 (an
    ill-typed comparison yields no answers rather than a crash).
    """
    if op == "=":
        ln, rn = _numeric(left), _numeric(right)
        if ln is not None and rn is not None:
            return ln == rn
        return left == right
    if op == "!=":
        return not element_compare("=", left, right)
    ln, rn = _numeric(left), _numeric(right)
    if ln is not None and rn is not None:
        lv, rv = ln, rn
    else:
        ls, rs = _text(left), _text(right)
        if ls is None or rs is None:
            return False
        lv, rv = ls, rs  # type: ignore[assignment]
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise QueryError(f"unknown comparator {op!r}")


ELEMENT_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})
SET_OPS: Dict[str, Callable[[FrozenSet[Oid], FrozenSet[Oid]], bool]] = {
    "contains": lambda l, r: l > r,
    "containsEq": lambda l, r: l >= r,
    "subset": lambda l, r: l < r,
    "subsetEq": lambda l, r: l <= r,
}


def compare(
    op: str,
    left: FrozenSet[Oid],
    right: FrozenSet[Oid],
    lq: Optional[str] = None,
    rq: Optional[str] = None,
) -> bool:
    """Evaluate a (possibly quantified) comparison of two value sets."""
    if op in SET_OPS:
        return SET_OPS[op](left, right)
    if op not in ELEMENT_OPS:
        raise QueryError(f"unknown comparator {op!r}")
    lq = lq or "some"
    rq = rq or "some"
    # Vacuous truth (§3.3): an ``all``-quantified side over an empty set
    # holds for every candidate, and a ``some``-quantified side over an
    # empty set never does.  The explicit early returns pin the semantics
    # query (13) relies on instead of leaving it to Python's all()/any()
    # on empty iterables.
    if not left:
        return lq == "all"
    if not right:
        return rq == "all"

    def right_holds(x: Oid) -> bool:
        if rq == "all":
            return all(element_compare(op, x, y) for y in right)
        return any(element_compare(op, x, y) for y in right)

    if lq == "all":
        return all(right_holds(x) for x in left)
    return any(right_holds(x) for x in left)


#: The ordering comparators, and each one's mirror (``g < x`` iff
#: ``x > g``), so a test with the ground side on the left reads the same.
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

ValueTest = Callable[[FrozenSet[Oid]], bool]


def ground_test(
    op: str,
    ground: FrozenSet[Oid],
    ground_on_left: bool,
    lq: Optional[str] = None,
    rq: Optional[str] = None,
) -> ValueTest:
    """:func:`compare` with one side's value fixed: ``values -> bool``.

    A step program binds this once per batch, from the operator, the
    quantifiers and the ground side's value, and runs it once per key.
    It answers exactly what ``compare(op, values, ground, lq, rq)`` (or,
    with *ground_on_left*, ``compare(op, ground, values, lq, rq)``)
    answers: a singleton ground side binds a one-element test typed by
    its value's kind, and any other ground side keeps ``compare``.
    """
    if op in SET_OPS:
        fn = SET_OPS[op]
        if ground_on_left:
            return lambda values: fn(ground, values)
        return lambda values: fn(values, ground)
    if op not in ELEMENT_OPS:
        raise QueryError(f"unknown comparator {op!r}")
    if len(ground) != 1:
        if ground_on_left:
            return lambda values: compare(op, ground, values, lq, rq)
        return lambda values: compare(op, values, ground, lq, rq)
    # Over a one-element side ``some`` and ``all`` coincide, so only the
    # other side's quantifier is left; an empty other side answers it
    # vacuously, as compare's early returns do.
    (element,) = ground
    test = _element_test(op, element, ground_on_left)
    if (rq if ground_on_left else lq) == "all":
        return lambda values: all(map(test, values))
    return lambda values: any(map(test, values))


def _element_test(
    op: str, ground: Oid, ground_on_left: bool
) -> Callable[[Oid], bool]:
    """``x -> element_compare(op, x, ground)`` (or ``(ground, x)``),
    typed once by *ground*'s kind: bools are not numerals, and an
    ordering between mismatched kinds fails."""
    if op == "!=":
        equal = _element_test("=", ground, ground_on_left)
        return lambda term: not equal(term)
    number = _numeric(ground)
    if op == "=":
        if number is None:
            return lambda term: term == ground

        def equal(term: Oid) -> bool:
            found = _numeric(term)
            return term == ground if found is None else found == number

        return equal
    cmp = _ORDER[_MIRROR[op] if ground_on_left else op]
    kind, bound = (_numeric, number) if number is not None else (
        _text, _text(ground)
    )
    if bound is None:
        return lambda term: False

    def ordered(term: Oid) -> bool:
        found = kind(term)
        return found is not None and cmp(found, bound)

    return ordered
