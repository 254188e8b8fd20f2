"""Differential test: the atom-chain step program equals the generic walk.

An atom chain (``H.M1.M2…``: ground 0-ary methods, no selectors) under a
ground head is answered by its step program — one cell reader per hop,
folded from the head (``programs.chain_fetcher``, which
``PathWalker.value_kinded`` runs, and ``ChainProgram.tails``, which
``Project`` runs) — instead of :meth:`PathWalker.walk`.  They must agree
on the tails *and* on the set-shaped flag, which is an OR over complete
paths only.  Every chain of length 1-3 that a head's reachable methods
spell (plus an undefined method at each hop) is checked on the Figure 1
database, on a scale-1k population, and through a pinned ``StoreView``.
"""

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import pytest

from repro import Session
from repro.datamodel.methods import PythonMethod
from repro.oid import Atom, FuncOid, Oid, Value, Variable, VarSort
from repro.workloads.scale import ScaleSpec, generate_scaled
from repro.xsql import ast
from repro.xsql.paths import PathWalker, resolve_term
from repro.xsql.evaluator import Evaluator
from repro.xsql.programs import ComparisonProgram, chain_fetcher, lower
from tests.conftest import make_paper_session

#: A method no object defines: the hop after it is always empty.
UNDEFINED = Atom("NoSuchMethod")
X = Variable("X")

VIEW = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, EmpName = String, Salary = Numeral
SELECT CompName = X.Name, EmpName = W.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions.Employees[W]
"""


def chain(head: object, methods: Tuple[Atom, ...]) -> ast.PathExpr:
    return ast.PathExpr(
        head, tuple(ast.Step(ast.MethodExpr(m)) for m in methods)
    )


def walk_fold(
    walker: PathWalker, path: ast.PathExpr, env: Dict
) -> Tuple[FrozenSet[Oid], bool]:
    tails = set()
    shaped = False
    for hit in walker.walk(path, env):
        tails.add(hit.tail)
        shaped = shaped or hit.set_shaped
    return frozenset(tails), shaped


def program_value(
    store, path: ast.PathExpr, env: Dict
) -> Optional[Tuple[FrozenSet[Oid], bool]]:
    """The chain's ``(tails, set-shaped)`` through its step program, or
    None when the path lowers to none or its head is unbound.  The tails
    ``Project`` reads (``ChainProgram.tails``) must agree."""
    program = lower(ast.PathItem(path))
    if program is None:
        return None
    key = tuple(env.get(var) for var in path.free_variables)
    tails = program.tails(store)(key)
    if tails is None:
        return None
    head = resolve_term(path.head, env)
    fetched = chain_fetcher(store, path.chain_methods)(head)
    assert fetched[0] == tails
    return fetched


def chains_from(
    store, head: Oid, max_len: int = 3
) -> Iterator[Tuple[Atom, ...]]:
    """Every method sequence of length 1..max_len whose hops are defined
    on some object the previous prefix reaches, plus the undefined
    method at each hop."""

    def extend(frontier: FrozenSet[Oid], prefix: Tuple[Atom, ...]):
        if len(prefix) == max_len:
            return
        methods = set()
        for node in frontier:
            methods |= store.methods_defined_on(node)
        methods.add(UNDEFINED)
        for method in sorted(methods, key=lambda m: m.name):
            sequence = prefix + (method,)
            yield sequence
            reached = frozenset().union(
                *(store.invoke(node, method) for node in frontier)
            )
            yield from extend(reached, sequence)

    yield from extend(frozenset({head}), ())


def assert_chains_agree(store, heads: List[Oid], max_len: int = 3) -> int:
    """Check every chain from every head, both as a constant head and as
    a bound variable head; returns how many (head, chain) pairs ran."""
    checked = 0
    for head in heads:
        for methods in chains_from(store, head, max_len):
            for path, env in (
                (chain(head, methods), {}),
                (chain(X, methods), {X: head}),
            ):
                expected = walk_fold(PathWalker(store), path, env)
                fetched = program_value(store, path, env)
                assert fetched == expected, (head, methods)
                assert PathWalker(store).value_kinded(path, env) == expected
                checked += 1
    return checked


def individuals(store) -> List[Oid]:
    return sorted(
        (obj for obj in store.individual_universe() if isinstance(obj, Atom)),
        key=lambda obj: obj.name,
    )


@pytest.fixture(scope="module")
def figure1() -> Session:
    """Figure 1 DB plus a class default, computed methods and a view."""
    session = make_paper_session()
    store = session.store
    store.set_attr(Atom("Person"), "Kind", "human")
    store.set_attr(Atom("bob"), "Phone", "555-0100")  # not anna
    store.set_attr(Atom("Employee"), "Office", Atom("addr_hq"))
    store.create_object(Atom("addr_hq"), ["Address"])
    store.set_attr(Atom("addr_hq"), "City", "austin")
    store.define_method(
        "Employee",
        PythonMethod(
            name=Atom("Double"),
            fn=lambda s, owner: Value(
                2 * s.invoke_scalar(owner, "Salary").value
            ),
        ),
    )
    store.define_method(
        "Person",
        PythonMethod(
            name=Atom("Kin"),
            fn=lambda s, owner: s.invoke(owner, "FamMembers"),
            set_valued=True,
        ),
    )
    session.execute(VIEW)
    return session


class TestCases:
    """The shapes the frontier loop could get wrong, one by one."""

    def check(self, store, head, *names) -> Tuple[FrozenSet[Oid], bool]:
        path = chain(head, tuple(Atom(n) for n in names))
        expected = walk_fold(PathWalker(store), path, {})
        assert program_value(store, path, {}) == expected
        assert PathWalker(store).value_kinded(path, {}) == expected
        return expected

    def test_set_hop_then_undefined_method_is_not_set_shaped(self, figure1):
        store = figure1.store
        tails, shaped = self.check(store, Atom("john13"), "FamMembers")
        assert tails and shaped
        tails, shaped = self.check(
            store, Atom("john13"), "FamMembers", UNDEFINED.name
        )
        assert tails == frozenset() and shaped is False

    def test_set_hop_then_partly_defined_method(self, figure1):
        # Only complete paths count: members without the next attribute
        # drop out, and the flag still comes from the set-valued hop.
        tails, shaped = self.check(
            figure1.store, Atom("john13"), "FamMembers", "Phone"
        )
        assert tails == frozenset({Value("555-0100")}) and shaped is True

    def test_inherited_class_default(self, figure1):
        tails, shaped = self.check(figure1.store, Atom("mary123"), "Kind")
        assert tails == frozenset({Value("human")}) and shaped is False
        tails, _ = self.check(figure1.store, Atom("john13"), "Office", "City")
        assert tails == frozenset({Value("austin")})

    def test_computed_methods(self, figure1):
        store = figure1.store
        salary = store.invoke_scalar(Atom("john13"), "Salary").value
        tails, shaped = self.check(store, Atom("john13"), "Double")
        assert tails == frozenset({Value(2 * salary)}) and shaped is False
        tails, shaped = self.check(store, Atom("john13"), "Kin", "Age")
        assert tails and shaped is True

    def test_view_object_head(self, figure1):
        view_objects = sorted(
            (
                row[0]
                for row in figure1.query(
                    "SELECT V FROM CompSalaries V"
                ).rows()
            ),
            key=str,
        )
        assert view_objects and all(
            isinstance(obj, FuncOid) for obj in view_objects
        )
        assert assert_chains_agree(figure1.store, view_objects) > 0
        # A ground id-term head resolves to the same view object.
        head = view_objects[0]
        path = chain(
            ast.App(head.functor, head.args), (Atom("Salary"),)
        )
        walker = PathWalker(figure1.store)
        fetched = program_value(figure1.store, path, {})
        assert fetched == walk_fold(walker, path, {})
        assert fetched[0]

    def test_other_shapes_fall_back_to_the_walk(self, figure1):
        store = figure1.store
        with_selector = ast.PathExpr(
            Atom("john13"),
            (ast.Step(ast.MethodExpr(Atom("Name")), Variable("N")),),
        )
        assert lower(ast.PathItem(with_selector)) is None
        with_path_variable = ast.PathExpr(
            Atom("john13"),
            (ast.Step(ast.MethodExpr(Variable("P", VarSort.PATH))),),
        )
        assert lower(ast.PathItem(with_path_variable)) is None
        # An unbound head is left to the walk, which ranges over it.
        assert program_value(store, chain(X, (Atom("Name"),)), {}) is None


def test_every_chain_on_figure1(figure1):
    assert assert_chains_agree(figure1.store, individuals(figure1.store)) > 0


def test_every_chain_on_scale_1k():
    store = generate_scaled(ScaleSpec(n_objects=1_000, seed=0))
    heads = individuals(store)[::25]
    assert len(heads) >= 30
    assert assert_chains_agree(store, heads) > 0


def test_every_chain_through_a_pinned_store_view(paper_session):
    with paper_session.store.snapshot_view() as view:
        before = view.invoke_scalar(Atom("john13"), "Salary")
        paper_session.execute("UPDATE CLASS Employee SET john13.Salary = 1")
        paper_session.execute("UPDATE CLASS Person SET mary123.Age = 99")
        assert view.invoke_scalar(Atom("john13"), "Salary") == before
        assert assert_chains_agree(view, individuals(view)) > 0


@pytest.mark.parametrize(
    "lq, rq", [(None, "all"), ("all", None), ("all", "all"), ("some", "all")]
)
def test_quantified_comparisons_over_multi_hop_chains(figure1, lq, rq):
    """Every chain of 2-3 hops from a few heads, as the variable side of
    a quantified comparison: its step program keeps each key exactly
    where ``eval_cond`` does, vacuous ``all`` over an empty chain
    included."""
    store = figure1.store
    evaluator = Evaluator(store)
    checked = 0
    for head in individuals(store)[::4]:
        for methods in chains_from(store, head):
            if len(methods) < 2:
                continue
            variable = ast.PathOperand(chain(X, methods))
            for ground in (Value(30), Value("austin")):
                constant = ast.PathOperand(ast.PathExpr(ground))
                for lhs, rhs in ((variable, constant), (constant, variable)):
                    cond = ast.Comparison(lhs, "<", rhs, lq, rq)
                    program = ComparisonProgram(cond)
                    compute, _ = program.bind(evaluator, None)
                    expected = tuple(
                        {} for _ in evaluator.eval_cond(cond, {X: head})
                    )
                    assert compute((head,)) == expected, (head, cond)
                    checked += 1
    assert checked > 100
