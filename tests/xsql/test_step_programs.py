"""Property: a lowered comparison answers exactly what ``eval_cond`` does.

A comparison conjunct runs on its step program
(:class:`~repro.xsql.programs.ComparisonProgram`): ground operands once
per batch, atom chains through per-method cell readers, and a
comparator bound from the operator, the quantifiers and the ground
side's value.  On random stores — class defaults, computed methods,
set-valued and reference hops; int, float, bool, string and atom
values; empty sets — every key's deltas must equal
``Evaluator.eval_cond``'s, for ``some``/``all`` on either side and the
constant on either side, on the live store and through a pinned
``StoreView`` whose owners were rewritten after the pin (checked
against a store that was never written past the pin).
"""

from typing import List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel.methods import PythonMethod
from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Value, Variable
from repro.xsql import ast
from repro.xsql.evaluator import Evaluator
from repro.xsql.programs import ComparisonProgram, key_env

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OBJECTS = [Atom(f"o{i}") for i in range(4)]
X, Y = Variable("X"), Variable("Y")

#: Literals of every kind: ints, floats, bools, strings and atoms.
LITERALS = [
    Value(0), Value(2), Value(1.0), Value(-1.5), Value(True), Value(False),
    Value(""), Value("a"), Value("b"), *OBJECTS,
]
literal = st.sampled_from(LITERALS)
#: A cell: a scalar, or a set (possibly empty).
cell = st.one_of(
    st.tuples(st.just("scalar"), literal),
    st.tuples(st.just("set"), st.frozensets(literal, max_size=3)),
)
#: A cell for every object and stored method, or none (undefined).
cells = st.fixed_dictionaries(
    {
        (obj, method): st.one_of(st.none(), cell)
        for obj in OBJECTS
        for method in ("A", "S", "R")
    }
)
#: 1-3 hops over stored (A, S, R), defaulted (D) and computed (K, N)
#: methods, plus one no object defines.
chain = st.lists(
    st.sampled_from(["A", "S", "R", "D", "K", "N", "Nope"]),
    min_size=1,
    max_size=3,
).map(tuple)
#: Ground sides of every kind: one literal of each, set literals (empty
#: included) and a chain from a constant head.
GROUND = [
    *(
        ast.PathOperand(ast.PathExpr(term))
        for term in (Value(1), Value(0.5), Value(True), Value("a"), OBJECTS[1])
    ),
    ast.SetLitOperand((Value(1), Value("a"))),
    ast.SetLitOperand(()),
]
OPS = ["=", "!=", "<", "<=", ">", ">=", "contains", "subsetEq"]
QUANTIFIERS = [
    (lq, rq) for lq in (None, "some", "all") for rq in (None, "some", "all")
]


def make_store(facts, default) -> ObjectStore:
    store = ObjectStore()
    store.declare_class("C")
    store.declare_class("E", ["C"])
    for index, obj in enumerate(OBJECTS):
        store.create_object(obj, ["E" if index % 2 else "C"])
    # A class default, inherited by every instance without its own D.
    store.set_attr(Atom("C"), "D", default)
    store.set_attr(OBJECTS[0], "D", Value(7))
    # Computed: the union of S over R's targets (set-valued), and the
    # size of S (scalar).
    store.define_method(
        "C",
        PythonMethod(
            name=Atom("K"),
            fn=lambda s, owner: frozenset().union(
                *(s.invoke(t, "S") for t in s.invoke(owner, "R"))
            ),
            set_valued=True,
        ),
    )
    store.define_method(
        "C",
        PythonMethod(
            name=Atom("N"),
            fn=lambda s, owner: Value(len(s.invoke(owner, "S"))),
        ),
    )
    write(store, facts)
    return store


def write(store: ObjectStore, facts) -> None:
    for (obj, method), fact in sorted(facts.items(), key=str):
        store.unset_attr(obj, method)
        if fact is None:
            continue
        kind, payload = fact
        if kind == "scalar":
            store.set_attr(obj, method, payload)
        else:
            store.set_attr_set(obj, method, payload)


def chain_operand(head, methods) -> ast.PathOperand:
    return ast.PathOperand(
        ast.PathExpr(
            head, tuple(ast.Step(ast.MethodExpr(Atom(m))) for m in methods)
        )
    )


def comparisons(methods, other_methods, ops, quantifiers):
    """The X chain against every ground side on either hand, and
    against a Y chain and a count over one, under *ops* and
    *quantifiers*."""
    variable = chain_operand(X, methods)
    pairs = [(variable, ground) for ground in GROUND]
    pairs += [(ground, variable) for ground in GROUND]
    pairs += [
        (variable, chain_operand(Y, other_methods)),
        (variable, ast.AggOperand("count", chain_operand(Y, ("S",)).path)),
    ]
    return [
        ast.Comparison(lhs, op, rhs, lq, rq)
        for lhs, rhs in pairs
        for op in ops
        for lq, rq in quantifiers
    ]


def agree(store, cond: ast.Comparison, reference=None) -> int:
    """Check every fully bound key against ``eval_cond`` over
    *reference* (by default *store* itself); returns how many ran."""
    evaluator = Evaluator(store)
    expect = Evaluator(store if reference is None else reference)
    program = ComparisonProgram(cond)

    def fallback(key):
        raise AssertionError(f"bound key {key} left the program")

    compute, _chains = program.bind(evaluator, fallback)
    keys: List[Tuple] = [
        tuple({X: x, Y: y}[var] for var in program.key_vars)
        for x in OBJECTS
        for y in (OBJECTS if Y in program.key_vars else OBJECTS[:1])
    ]
    for key in keys:
        env = key_env(program.key_vars, key)
        expected = tuple(
            {var: value for var, value in out.items() if var not in env}
            for out in expect.eval_cond(cond, env)
        )
        assert compute(key) == expected, (cond, key)
    return len(keys)


@SETTINGS
@given(
    facts=cells,
    default=literal,
    methods=chain,
    other=chain,
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=3, unique=True),
    quantifiers=st.lists(
        st.sampled_from(QUANTIFIERS), min_size=1, max_size=2, unique=True
    ),
    later=cells,
)
def test_lowered_comparison_equals_eval_cond(
    facts, default, methods, other, ops, quantifiers, later
):
    conds = comparisons(methods, other, ops, quantifiers)
    store = make_store(facts, default)
    for cond in conds:
        assert agree(store, cond) >= len(OBJECTS)
    # Pinned: rewrite cells after the pin, so the view reads pre-images;
    # the reference is a store never written past the pin.
    view = store.snapshot_view()
    try:
        write(store, later)
        at_pin = make_store(facts, default)
        for cond in conds:
            assert agree(view, cond, reference=at_pin) >= len(OBJECTS)
            assert agree(store, cond) >= len(OBJECTS)
    finally:
        view.release()


def test_unbound_keys_go_to_the_fallback():
    store = make_store({}, Value(1))
    cond = ast.Comparison(
        chain_operand(X, ("D",)), "<", chain_operand(Y, ("D",))
    )
    program = ComparisonProgram(cond)
    compute, chains = program.bind(Evaluator(store), lambda key: "fallback")
    slot = program.key_vars.index(Y)
    key = tuple(OBJECTS[0] if i != slot else None for i in range(2))
    assert compute(key) == "fallback"
    assert chains() == 0
    assert compute((OBJECTS[0], OBJECTS[1])) == ()  # 7 < 1 fails
    assert chains() == 2  # one computed key, two chain operands
