"""The set-at-a-time executor: parity, metrics, and cache invalidation.

Parity is checked three ways for every query: ``join_mode="hash"`` vs
``join_mode="nested"`` under ``plan="cost"`` (row sets *and* enumeration
order — the Sequence contract), and, where the fragment allows, vs the
:class:`~repro.xsql.evaluator.NaiveEvaluator` §3.4 semantics.
"""

import pytest

from repro import Session
from repro.errors import QueryError
from repro.schema.figure1 import build_figure1_schema
from repro.workloads.paper_db import populate_paper_database
from repro.oid import Atom, Value
from repro.xsql import ast, build
from repro.xsql.operators import join_strategy_of
from repro.xsql.parser import parse_query

#: Explicit joins (examples (12)–(13) shapes) and quantified comparisons,
#: including vacuous-truth (`=all` over possibly-empty walks) edges.
JOIN_QUERIES = [
    # (13): self-join on a scalar attribute.
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary",
    # (12) shape: correlated equality (shared X) — nested fallback.
    "SELECT X, Y FROM Company X WHERE X.Name =some X.Divisions.Employees[Y].Name",
    # Fan-out chain join across two extents.
    "SELECT X, Y FROM Person X, Automobile Y "
    "WHERE X.Residence.City =some Y.Manufacturer.Headquarters.City",
    # Star: two joins hanging off one dimension variable.
    "SELECT D, X, Y FROM Division D, Employee X, Employee Y "
    "WHERE D.Manager.Salary =some X.Salary "
    "and D.Location.City =some Y.Residence.City",
    # Hash join followed by a nested-loop residual filter.
    "SELECT X, Y FROM Person X, Person Y "
    "WHERE X.Residence =some Y.Residence and X.Age < Y.Age",
    # `all` quantifiers stay on the nested path (not intersection).
    "SELECT X, Y FROM Employee X, Employee Y "
    "WHERE X.FamMembers.Age all<all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y "
    "WHERE X.OwnedVehicles.Color =all Y.OwnedVehicles.Color",
    # Inequality join: nested fallback.
    "SELECT X, Y FROM Division X, Division Y WHERE X.Function !=some Y.Function",
    # Semi-join against a ground path.
    "SELECT X FROM Person X WHERE X.Residence.City =some mary123.Residence.City",
    # Empty extent on one side: no rows, no crash.
    "SELECT X, Y FROM TurboEngine X, Employee Y WHERE X.HPpower =some Y.Salary",
]


@pytest.fixture(scope="module")
def stores():
    def fresh():
        session = Session()
        build_figure1_schema(session.store)
        populate_paper_database(session.store)
        return session

    return fresh


@pytest.mark.parametrize("text", JOIN_QUERIES)
def test_hash_matches_nested_and_naive(stores, text):
    hash_session = stores()
    nested_session = stores()
    hash_result = hash_session.query(text, plan="cost")
    nested_result = nested_session.query(
        text, plan="cost", join_mode="nested"
    )
    assert hash_result.rows() == nested_result.rows(), text
    assert list(hash_result) == list(nested_result), text

    parsed = parse_query(text)
    n_vars = len(set(ast.free_variables(parsed)))
    if n_vars > 2:
        return  # naive enumerates universe**n: keep tier-1 fast
    try:
        naive_rows = hash_session.query(text, engine="naive").rows()
    except QueryError:
        return  # outside the naive fragment (e.g. SELECT of a raw var set)
    assert hash_result.rows() == naive_rows, text


def test_vacuous_truth_on_empty_walks(stores):
    # Both sides empty: `=all` holds vacuously, `=some` does not — the
    # executor must route these through compare(), not the hash table.
    session = stores()
    nested = stores()
    text = (
        "SELECT X, Y FROM TurboEngine X, TurboEngine Y "
        "WHERE X.HPpower =all Y.HPpower"
    )
    assert session.query(text, plan="cost").rows() == nested.query(
        text, plan="cost", join_mode="nested"
    ).rows()


def test_join_strategy_classification():
    x, y = build.ivar("X"), build.ivar("Y")
    xs = build.operand(build.path(x, "Salary"))
    ys = build.operand(build.path(y, "Salary"))
    ground = build.operand(build.path(Atom("mary123"), "Age"))
    assert join_strategy_of(build.compare(xs, "=", ys)) == "hash"
    assert join_strategy_of(build.compare(xs, "=", ys, rq="some")) == "hash"
    assert join_strategy_of(build.compare(xs, "=", ground)) == "semi"
    assert join_strategy_of(build.compare(ground, "=", ground)) == "nested"
    assert join_strategy_of(build.compare(xs, "=", ys, rq="all")) == "nested"
    assert join_strategy_of(build.compare(xs, "!=", ys)) == "nested"
    # Shared variable: correlation, not a join.
    xn = build.operand(build.path(x, "Name"))
    xd = build.operand(build.path(x, "Residence"))
    assert join_strategy_of(build.compare(xn, "=", xd)) == "nested"


def test_path_steps_from_atoms_and_tuples():
    # An Atom is a tuple too: it must build one plain step, not be
    # splatted as a (method, selector) pair.
    x, a = build.ivar("X"), build.ivar("A")
    assert build.path(x, Atom("Salary")) == build.path(x, "Salary")
    built = build.path(x, ("Residence", a), (Atom("City"), "newyork"))
    assert all(isinstance(step, ast.Step) for step in built.steps)
    assert built.steps[0] == build.step("Residence", a)
    assert built.steps[1] == build.step(Atom("City"), Value("newyork"))


def test_join_metrics_counted(stores):
    session = stores()
    session.query(
        "SELECT X, Y FROM Employee X, Employee Y "
        "WHERE X.Salary =some Y.Salary",
        plan="cost",
    )
    counters = session.stats()["counters"]
    assert counters.get("join.hash", 0) >= 1


def test_path_cache_hit_miss_metrics(stores):
    session = stores()
    text = "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"
    session.query(text, plan="cost")
    counters = session.stats()["counters"]
    assert counters.get("cache.path.miss", 0) >= 1

    def reused(counters):
        return counters.get("cache.memo.hit", 0) + counters.get(
            "cache.path.hit", 0
        )

    before = reused(counters)
    session.query(text, plan="cost")
    after = reused(session.stats()["counters"])
    assert after > before  # the second run reuses memoized work


def test_path_cache_invalidated_by_data_writes(stores):
    session = stores()
    store = session.store
    walker = session.evaluator().walker
    jane = next(iter(store.extent("Employee")))
    path = parse_query("SELECT X.Salary FROM Employee X").select[0].path
    env = {build.ivar("X"): jane}
    first = walker.value(path, env)
    assert walker.value(path, env) == first  # second call is a cache hit
    counters = session.stats()["counters"]
    assert counters.get("cache.path.hit", 0) >= 1
    store.set_attr(jane, "Salary", Value(99_000))
    assert walker.value(path, env) == frozenset({Value(99_000)})
    assert session.stats()["counters"].get("cache.path.invalidated", 0) >= 1


def test_path_cache_invalidated_by_schema_bumps(stores):
    session = stores()
    walker = session.evaluator().walker
    from repro.oid import VarSort

    before = list(walker.universe(VarSort.CLASS))
    invalidated = session.stats()["counters"].get(
        "cache.path.invalidated", 0
    )
    session.store.declare_class("Hovercraft", ["Vehicle"])
    after = walker.universe(VarSort.CLASS)
    assert Atom("Hovercraft") in after
    assert len(after) == len(before) + 1
    assert (
        session.stats()["counters"].get("cache.path.invalidated", 0)
        > invalidated
    )


def _define_twice(store, _obj):
    from repro.datamodel.methods import PythonMethod

    store.define_method(
        "Employee", PythonMethod(Atom("Twice"), lambda st, owner: Value(2))
    )


#: One write through each store mutator that moves the ticket; the
#: relation insert needs its relation declared first.
MEMO_WRITES = {
    "declare_class": lambda store, obj: store.declare_class(
        "Hovercraft", ["Vehicle"]
    ),
    "declare_signature": lambda store, obj: store.declare_signature(
        "Employee", "Nickname", "String"
    ),
    "enable_index": lambda store, obj: store.enable_index("Salary"),
    "define_method": _define_twice,
    "resolve_inheritance": lambda store, obj: store.resolve_inheritance(
        "Employee", "Age", "Person"
    ),
    "set_attr": lambda store, obj: store.set_attr(
        obj, "Salary", Value(99_000)
    ),
    "add_instance": lambda store, obj: store.add_instance(
        "newcomer", "Employee"
    ),
    "insert_tuple": lambda store, obj: store.insert_tuple(
        "Pairs", (obj, obj)
    ),
}


@pytest.mark.parametrize("write", sorted(MEMO_WRITES))
def test_every_mutator_drops_memoized_path_values(stores, write):
    # The walker stamps its memo with the store's mutation ticket, one
    # integer compare per check: each mutator must move it.
    session = stores()
    store = session.store
    store.declare_relation("Pairs", ["left", "right"])
    walker = session.evaluator().walker
    jane = sorted(store.extent("Employee"), key=str)[0]
    path = parse_query("SELECT X.Salary FROM Employee X").select[0].path
    env = {build.ivar("X"): jane}
    walker.value(path, env)
    counters = session.metrics.counters
    hits = counters.get("cache.path.hit", 0)
    walker.value(path, env)
    assert counters.get("cache.path.hit", 0) == hits + 1
    misses = counters.get("cache.path.miss", 0)
    invalidated = counters.get("cache.path.invalidated", 0)
    MEMO_WRITES[write](store, jane)
    walker.value(path, env)
    assert counters.get("cache.path.miss", 0) == misses + 1
    assert counters.get("cache.path.invalidated", 0) == invalidated + 1


def test_memo_call_writes_at_most_the_capacity_and_reads_every_key():
    from repro.metrics import SessionMetrics
    from repro.xsql.paths import PathWalker

    metrics = SessionMetrics()
    walker = PathWalker(Session().store, metrics=metrics)
    walker._memo_cache_cap = 2
    x = build.ivar("X")
    computed = []

    def compute(projection):
        computed.append(projection[x])
        return frozenset({projection[x]})

    keys = [(Value(n),) for n in (1, 2, 3, 1)]
    first = walker.memoized("probe", "node", [x], keys, compute)
    assert first == {key: frozenset(key) for key in keys}
    assert computed == [Value(1), Value(2), Value(3)]  # once per key
    assert len(walker._memo_cache) == 2  # the budget: capacity writes
    walker.memoized("probe", "node", [x], keys, compute)
    assert computed[3:] == [Value(3)]  # the written keys are read back
    counters = metrics.snapshot()["counters"]
    assert counters["cache.memo.hit"] == 2
    assert counters["cache.memo.miss"] == 4
    assert counters["cache.memo.evict"] == 1


def test_path_cache_evicts_at_capacity():
    from repro.metrics import SessionMetrics
    from repro.xsql.paths import PathWalker

    session = Session()
    build_figure1_schema(session.store)
    populate_paper_database(session.store)
    metrics = SessionMetrics()
    walker = PathWalker(session.store, metrics=metrics)
    walker._memo_cache_cap = 2
    path = parse_query("SELECT X.Age FROM Person X").select[0].path
    people = sorted(session.store.extent("Person"), key=str)[:3]
    for person in people:
        walker.value(path, {build.ivar("X"): person})
    counters = metrics.snapshot()["counters"]
    # Path values live in the one walker memo, whose evictions are
    # counted under cache.memo.evict.
    assert counters.get("cache.path.miss", 0) == 3
    assert counters.get("cache.memo.evict", 0) == 1


def test_updates_keep_nested_semantics(stores):
    # WHERE clauses containing UPDATE conjuncts must never batch: the
    # pipeline routes them to the tuple-at-a-time reference engine even
    # under join_mode="hash", so effects are not reordered.
    hash_session = stores()
    nested_session = stores()
    text = (
        "SELECT X FROM Employee X "
        "WHERE UPDATE CLASS Employee SET X.Salary = 50000"
    )
    assert "engine=reference" in hash_session.explain(text, plan="cost")
    assert (
        hash_session.query(text, plan="cost").rows()
        == nested_session.query(text, plan="cost", join_mode="nested").rows()
    )
