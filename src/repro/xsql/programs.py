"""Step programs: comparisons and atom chains lowered once (§3.2).

A comparison ``L lq-op-rq R`` is a quantified test over two path values,
and the value of an atom chain ``H.M1.M2…`` (ground 0-ary methods, no
selectors) is a plain attribute fetch.  Interpreted from the AST, each
costs a walk, memo round trips and a generic ``compare`` per key.  This
module lowers them once, when a statement is lowered, into programs of
bound steps that read a projection key tuple directly:

* an atom chain binds one cell reader per hop
  (:meth:`~repro.datamodel.store.ObjectStore.cell_reader`) and folds
  them from the head oid (:func:`chain_fetcher`);
* an operand reads its value off the key: a ground operand (constant,
  set literal, ground id-term) is evaluated once per batch, an atom
  chain or an aggregate over one fetches from the key's head cell, and
  any other operand goes to ``Evaluator.eval_operand``;
* a :class:`ComparisonProgram` runs two operands and a comparator bound
  from the operator, the quantifiers and the ground side's value
  (:func:`~repro.xsql.comparisons.ground_test`).

A program computes exactly what ``Evaluator.eval_cond`` and
``PathWalker.walk`` compute.  A key that leaves unbound a variable
``eval_cond`` would enumerate goes to ``eval_cond`` instead.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.oid import FuncOid, Oid, Variable, VarSort
from repro.xsql import ast
from repro.xsql.aggregates import apply_aggregate
from repro.xsql.comparisons import compare, ground_test

__all__ = [
    "ChainProgram",
    "ComparisonProgram",
    "KEEP",
    "OperandProgram",
    "chain_fetcher",
    "key_env",
    "lower",
]

Bindings = Dict[Variable, object]
Key = Tuple[object, ...]
#: ``head oid -> (tails, set-shaped)`` of one atom chain.
Fetch = Callable[[Oid], Tuple[FrozenSet[Oid], bool]]

#: The delta list of a row a filter keeps unchanged.
KEEP: Tuple[Bindings, ...] = ({},)


def key_env(key_vars: Sequence[Variable], key: Key) -> Bindings:
    """The binding a projection key denotes (unbound cells omitted)."""
    return {var: cell for var, cell in zip(key_vars, key) if cell is not None}


def _fold(readers, head: Oid) -> Tuple[FrozenSet[Oid], bool]:
    """Fold an atom chain's cell readers from *head*.

    Equal to folding ``PathWalker.walk``, which enumerates every database
    path: a node's continuation does not depend on how it was reached,
    so the frontier keeps each node once with the OR of the flags of
    the prefixes reaching it, and the flag read at the end is the OR over
    complete paths only (an empty frontier reads ``False``, as a walk
    that yields nothing does).
    """
    frontier: Dict[Oid, bool] = {head: False}
    for read in readers:
        reached: Dict[Oid, bool] = {}
        for node, flag in frontier.items():
            values, set_valued = read(node)
            flag = flag or set_valued
            for value in values:
                if flag or value not in reached:
                    reached[value] = flag
        frontier = reached
        if not frontier:
            break
    return frozenset(frontier), any(frontier.values())


def chain_fetcher(store, methods: Sequence) -> Fetch:
    """The fetch of the atom chain over *methods*, bound to *store*."""
    return partial(_fold, tuple(store.cell_reader(m) for m in methods))


class ChainProgram:
    """An atom chain whose head is ground or a key cell.

    ``head`` is the ground head oid, else None and ``slot`` is the key
    cell holding the head.
    """

    __slots__ = ("methods", "head", "slot")

    def __init__(
        self, methods: Tuple, head: Optional[Oid], slot: Optional[int]
    ) -> None:
        self.methods = methods
        self.head = head
        self.slot = slot

    def tails(self, store) -> Callable[[Key], Optional[FrozenSet[Oid]]]:
        """``key -> tails`` bound to *store*; None where the key leaves
        the head unbound (the walk then ranges over it)."""
        head, slot = self.head, self.slot
        if len(self.methods) == 1 and slot is not None:
            # One hop from a key cell: the reader alone.
            read = store.cell_reader(self.methods[0])

            def one_hop(key: Key) -> Optional[FrozenSet[Oid]]:
                cell = key[slot]
                return None if cell is None else read(cell)[0]

            return one_hop
        fetch = chain_fetcher(store, self.methods)

        def hops(key: Key) -> Optional[FrozenSet[Oid]]:
            start = head if slot is None else key[slot]
            return None if start is None else fetch(start)[0]

        return hops


def _ground(node: object) -> Optional[Oid]:
    """*node* as an oid when it is ground: an oid or a ground id-term."""
    if isinstance(node, Oid):
        return node
    if isinstance(node, ast.App):
        args = tuple(_ground(arg) for arg in node.args)
        if all(arg is not None for arg in args):
            return FuncOid(node.functor, args)  # type: ignore[arg-type]
    return None


def _chain(
    path: ast.PathExpr, slots: Dict[Variable, int]
) -> Optional[ChainProgram]:
    methods = path.chain_methods
    if methods is None:
        return None
    head = path.head
    if isinstance(head, Variable):
        # A path variable's cell is a method sequence, which the walk
        # reifies as attrpath(...): the walk keeps it.
        if head.sort == VarSort.PATH or head not in slots:
            return None
        return ChainProgram(methods, None, slots[head])
    ground = _ground(head)
    return None if ground is None else ChainProgram(methods, ground, None)


class OperandProgram:
    """One operand read off a key: ground, a chain (or an aggregate
    over one), or generic.  Where the operand is a chain, callers bind
    its head variable in every key they pass."""

    __slots__ = ("operand", "key_vars", "ground", "chain", "fn")

    def __init__(
        self, operand: ast.Operand, key_vars: Sequence[Variable]
    ) -> None:
        self.operand = operand
        self.key_vars = tuple(key_vars)
        self.ground = not any(ast.operand_variables(operand))
        self.chain = None
        self.fn = None
        if not self.ground and isinstance(
            operand, (ast.PathOperand, ast.AggOperand)
        ):
            slots = {var: index for index, var in enumerate(self.key_vars)}
            self.chain = _chain(operand.path, slots)
            self.fn = getattr(operand, "fn", None)

    def bind(self, evaluator) -> Callable[[Key], FrozenSet[Oid]]:
        """``key -> value set`` over *evaluator*'s store."""
        operand, key_vars = self.operand, self.key_vars
        if self.chain is None:
            eval_operand = evaluator.eval_operand
            return lambda key: eval_operand(operand, key_env(key_vars, key))
        tails = self.chain.tails(evaluator.store)
        fn = self.fn
        if fn is None:
            return tails
        return lambda key: frozenset({apply_aggregate(fn, tails(key))})


class ComparisonProgram:
    """A comparison conjunct lowered once: two operands, a comparator.

    Keyed on the conjunct's variables in name order.  :meth:`bind`
    makes one batch's per-key computation, ``key -> deltas``: ``KEEP``
    where the comparison holds and ``()`` where it fails, which is what
    ``eval_cond`` yields when every variable it would enumerate is
    bound.  Other keys go to the *fallback*.
    """

    __slots__ = ("cond", "key_vars", "enumerated", "left", "right")

    def __init__(self, cond: ast.Comparison) -> None:
        self.cond = cond
        self.key_vars = tuple(
            sorted(
                set(ast.cond_variables(cond)),
                key=lambda var: (var.name, var.sort.value),
            )
        )
        compared = set(ast.compared_variables(cond.lhs))
        compared.update(ast.compared_variables(cond.rhs))
        self.enumerated = tuple(
            index
            for index, var in enumerate(self.key_vars)
            if var in compared
        )
        self.left = OperandProgram(cond.lhs, self.key_vars)
        self.right = OperandProgram(cond.rhs, self.key_vars)

    def bind(self, evaluator, fallback):
        """``(key -> deltas, chains)`` for one batch; ``chains()`` is how
        many chain values the program has computed so far (the batch's
        path-memo misses)."""
        cond = self.cond
        enumerated = self.enumerated
        left, right = self.left, self.right
        per_key = (left.chain is not None) + (right.chain is not None)
        computed = 0
        if left.ground != right.ground:
            ground, ground_on_left = (
                (left, True) if left.ground else (right, False)
            )
            values = (right if ground_on_left else left).bind(evaluator)
            test = None

            def compute(key: Key):
                nonlocal computed, test
                for slot in enumerated:
                    if key[slot] is None:
                        return fallback(key)
                if test is None:
                    test = ground_test(
                        cond.op,
                        evaluator.eval_operand(ground.operand, {}),
                        ground_on_left,
                        cond.lq,
                        cond.rq,
                    )
                computed += 1
                return KEEP if test(values(key)) else ()

        else:
            lvalues = left.bind(evaluator)
            rvalues = right.bind(evaluator)

            def compute(key: Key):
                nonlocal computed
                for slot in enumerated:
                    if key[slot] is None:
                        return fallback(key)
                computed += 1
                holds = compare(
                    cond.op, lvalues(key), rvalues(key), cond.lq, cond.rq
                )
                return KEEP if holds else ()

        return compute, lambda: computed * per_key


def lower(node: object) -> Union[ComparisonProgram, ChainProgram, None]:
    """The step program of a comparison conjunct or of a SELECT path
    item (keyed on the item's free variables), or None for any other
    node, which keeps the generic walk and ``eval_cond``."""
    if isinstance(node, ast.Comparison):
        return ComparisonProgram(node)
    if isinstance(node, ast.PathItem):
        slots = {
            var: index
            for index, var in enumerate(node.path.free_variables)
        }
        return _chain(node.path, slots)
    return None
