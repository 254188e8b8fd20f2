"""Columnar ``Project`` and ``HashJoin``/``SemiJoin`` against row references.

``Project`` projects on distinct column tuples and evaluates each SELECT
item once per distinct binding of its own variables; the joins compute
operand values once per distinct projection key and gather the output
columns by index.  The references here are the row-at-a-time forms they
replaced: ``select_rows`` over ``dedup(cross_state(state))``, and a
build/probe join over ``to_rows()`` dicts.  While
:func:`checked_operators` is active, every ``Project``/``HashJoin``/
``SemiJoin`` a query runs is computed both ways and must agree — the
joins binding stream for binding stream, order included.
"""

from contextlib import contextmanager
from typing import Dict, List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.difftest.grammar import GeneratorConfig, QueryGenerator, SchemaModel
from repro.errors import XsqlError
from repro.oid import Atom, FuncOid, Value, Variable
from repro.workloads.generator import WORKLOAD_PRESETS, generate_database
from repro.xsql import ast, batches, operators
from repro.xsql.batches import UNBOUND, ColumnBatch, cross_state
from repro.xsql.evaluator import dedup, select_rows
from repro.xsql.parser import parse_query
from repro.xsql.session import Session
from tests.conftest import make_paper_session

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

P4 = "SELECT Z FROM Employee X WHERE X.OwnedVehicles.Drivetrain.Engine[Z]"
P11 = (
    "SELECT X.Name, W.Salary FROM Company X "
    "WHERE X.Divisions.Employees[W]"
)
J1 = (
    "SELECT X, Y FROM Employee X, Employee Y "
    "WHERE X.Salary =some Y.Salary"
)


# ----------------------------------------------------------------------
# the row-at-a-time references
# ----------------------------------------------------------------------


def _outcome(compute):
    try:
        return "ok", compute()
    except XsqlError as exc:
        return "error", (type(exc), str(exc))


def reference_project(walker, items, state):
    return {
        row
        for env in dedup(cross_state(state))
        for row in select_rows(walker, items, env)
    }


def _sides(op):
    cond = op.cond
    lvars = set(operators.operand_join_vars(cond.lhs) or ())
    rvars = set(operators.operand_join_vars(cond.rhs) or ())
    return cond, lvars, rvars


def reference_hash_join(op, state):
    cond, lvars, rvars = _sides(op)
    if not operators._setwise_ready(state, lvars, rvars):
        return None
    left, rest = operators.merge_overlapping(state, lvars)
    right, rest = operators.merge_overlapping(rest, rvars)
    build, build_op, probe, probe_op = (
        (left, cond.lhs, right, cond.rhs)
        if len(left) <= len(right)
        else (right, cond.rhs, left, cond.lhs)
    )
    build_rows = build.to_rows()
    table: Dict[object, List[int]] = {}
    for index, env in enumerate(build_rows):
        for value in op._operand_values(build_op, env):
            table.setdefault(value, []).append(index)
    envs = []
    for probe_env in probe.to_rows():
        matched: Set[int] = set()
        for value in op._operand_values(probe_op, probe_env):
            matched.update(table.get(value, ()))
        for index in sorted(matched):
            envs.append({**build_rows[index], **probe_env})
    rest.append(ColumnBatch.from_rows(left.vars | right.vars, envs))
    return rest


def reference_semi_join(op, state):
    cond, lvars, rvars = _sides(op)
    if not operators._setwise_ready(state, lvars, rvars):
        return None
    keyed, ground_op = (lvars, cond.rhs) if lvars else (rvars, cond.lhs)
    keyed_op = cond.lhs if keyed is lvars else cond.rhs
    base, rest = operators.merge_overlapping(state, keyed)
    ground = op._operand_values(ground_op, {})
    envs = [
        env
        for env in base.to_rows()
        if ground and not ground.isdisjoint(op._operand_values(keyed_op, env))
    ]
    rest.append(ColumnBatch.from_rows(base.vars | keyed, envs))
    return rest


def _stream(state):
    """A state as comparable data: per batch, its variables and rows."""
    if state is None:
        return None
    return [(frozenset(batch.vars), batch.to_rows()) for batch in state]


@contextmanager
def checked_operators():
    """Cross-check every columnar Project/HashJoin/SemiJoin run inside.

    Yields a dict counting the checked calls per operator.
    """
    seen = {"Project": 0, "HashJoin": 0, "SemiJoin": 0}
    project = operators._project
    try_join = operators.HashJoin._try_join
    semi = operators.SemiJoin._transform

    def checked_project(walker, items, state):
        got = _outcome(lambda: set(project(walker, items, state)))
        want = _outcome(lambda: reference_project(walker, items, state))
        assert got == want
        seen["Project"] += 1
        if got[0] == "error":
            return project(walker, items, state)  # raises it again
        return iter(got[1])

    def checked_join(self, state):
        out = try_join(self, state)
        if out is not None:
            assert _stream(out) == _stream(reference_hash_join(self, state))
            seen["HashJoin"] += 1
        return out

    def checked_semi(self, state):
        out = semi(self, state)
        want = reference_semi_join(self, state)
        if want is not None:
            assert _stream(out) == _stream(want)
            seen["SemiJoin"] += 1
        return out

    operators._project = checked_project
    operators.HashJoin._try_join = checked_join
    operators.SemiJoin._transform = checked_semi
    try:
        yield seen
    finally:
        operators._project = project
        operators.HashJoin._try_join = try_join
        operators.SemiJoin._transform = semi


# ----------------------------------------------------------------------
# the property: generated queries over Figure 1 and a generated store
# ----------------------------------------------------------------------

_STORES: Dict[str, Session] = {}


def _session(kind: str) -> Session:
    if kind not in _STORES:
        if kind == "figure1":
            _STORES[kind] = make_paper_session()
        else:
            _STORES[kind] = Session(
                store=generate_database(WORKLOAD_PRESETS["tiny"])
            )
    return _STORES[kind]


_CONFIGS = {"default": GeneratorConfig(), "joins": GeneratorConfig.joins()}


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["figure1", "generated"]),
    preset=st.sampled_from(sorted(_CONFIGS)),
    plan=st.sampled_from(["cost", "none"]),
    index=st.integers(min_value=0, max_value=5_000),
)
def test_generated_queries_match_row_references(kind, preset, plan, index):
    session = _session(kind)
    generator = QueryGenerator(
        SchemaModel.from_store(session.store), _CONFIGS[preset], seed=7
    )
    text = str(generator.generate(index))
    with checked_operators():
        try:
            session.query(text, plan=plan)
        except XsqlError:
            pass  # an engine error is fine; the checks ran before it


def test_generated_queries_reach_every_checked_operator():
    # The property above is only as strong as what it reaches: over the
    # first 200 queries per store and preset, every operator is checked.
    with checked_operators() as seen:
        for kind in ("figure1", "generated"):
            session = _session(kind)
            for config in _CONFIGS.values():
                generator = QueryGenerator(
                    SchemaModel.from_store(session.store), config, seed=7
                )
                for index in range(200):
                    try:
                        session.query(
                            str(generator.generate(index)), plan="cost"
                        )
                    except XsqlError:
                        pass
    assert all(count > 0 for count in seen.values()), seen


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------


def _query_checked(session, text, **kw):
    with checked_operators():
        got = session.query(text, **kw)
    assert got.rows() == session.query(text, plan="none").rows()
    return got


class TestProjectEdges:
    def test_path_variable_select_projects_attrpath(self, paper_session):
        # *P binds a tuple of method atoms, not an Oid: the bare-variable
        # shortcut must leave it to the walk, which reifies it.
        got = _query_checked(
            paper_session, "SELECT P WHERE mary123.*P.City['newyork']"
        )
        assert FuncOid("attrpath", (Atom("Residence"),)) in (
            got.single_column()
        )
        # A two-method sequence: the walk must tell the plain tuple
        # (Dependents, Residence) from an oid, which is a tuple too.
        got = _query_checked(
            paper_session,
            "SELECT P FROM Employee X WHERE X.*P.City['newyork']",
        )
        assert FuncOid(
            "attrpath", (Atom("Dependents"), Atom("Residence"))
        ) in got.single_column()

    def test_path_variable_cells_over_many_keys(self, paper_session):
        walker = paper_session.evaluator().walker
        query = parse_query("SELECT P WHERE mary123.*P[mary123]")
        (path_var,) = query.select[0].path.free_variables
        residence = (Atom("Residence"),)
        state = [
            ColumnBatch({path_var}, {path_var: [residence, ()]}, 2)
        ]
        got = set(operators._project(walker, query.select, state))
        assert got == reference_project(walker, query.select, state)
        assert got == {
            (FuncOid("attrpath", residence),),
            (FuncOid("attrpath", ()),),
        }

    def test_ragged_unbound_columns_from_or_branches(self, paper_session):
        # B is bound only where the first branch held; elsewhere the
        # SELECT items treat it existentially, and B.Doors shares B with
        # the bare item B, so those rows walk the items jointly.
        text = (
            "SELECT X, B, B.Doors FROM Automobile X "
            "WHERE X.Body[B] or X.Color['red']"
        )
        naive = paper_session.query(text, engine="naive").rows()
        for plan in ("cost", "none", "greedy"):
            got = _query_checked(paper_session, text, plan=plan)
            assert got.rows() == naive
        assert {row[0] for row in got} == {Atom("carBlue"), Atom("carRed")}
        for _auto, body, doors in got:
            assert doors in paper_session.store.invoke(body, "Doors")

    def test_ragged_batch_directly(self, paper_session):
        walker = paper_session.evaluator().walker
        query = parse_query("SELECT X, Y FROM Person X")
        mary = Atom("mary123")
        state = [
            ColumnBatch({X, Y}, {X: [mary, mary], Y: [mary, UNBOUND]}, 2)
        ]
        got = set(operators._project(walker, query.select, state))
        assert got == reference_project(walker, query.select, state)
        assert len(got) > 1  # the UNBOUND row ranges Y over the universe

    def test_empty_batch_on_unselected_variable_empties_result(
        self, paper_session
    ):
        walker = paper_session.evaluator().walker
        query = parse_query("SELECT X FROM Person X")
        state = [
            ColumnBatch({X}, {X: [Atom("mary123")]}, 1),
            ColumnBatch({Z}, {Z: []}, 0),
        ]
        assert list(operators._project(walker, query.select, state)) == []
        text = (
            "SELECT X FROM Person X, Company Z WHERE Z.Name['nowhere']"
        )
        assert len(_query_checked(paper_session, text, plan="cost")) == 0

    def test_unselected_batches_only_repeat_rows(self, paper_session):
        text = "SELECT X FROM Company X, Automobile Z"
        got = _query_checked(paper_session, text, plan="cost")
        companies = paper_session.query("SELECT X FROM Company X")
        assert got.rows() == companies.rows()

    def test_set_valued_items_expand_to_products(self, paper_session):
        text = "SELECT X, X.FamMembers, X.OwnedVehicles FROM Employee X"
        got = _query_checked(paper_session, text, plan="cost")
        store = paper_session.store
        assert len(got) > len({row[0] for row in got})
        for person, member, vehicle in got:
            assert member in store.invoke(person, "FamMembers")
            assert vehicle in store.invoke(person, "OwnedVehicles")

    def test_items_sharing_an_unbound_variable_stay_consistent(
        self, paper_session
    ):
        # R is bound by no FROM or WHERE: both items range over it, and
        # each row must pair a residence with *that* residence's city.
        text = "SELECT X.Residence[R], R.City FROM Person X"
        got = _query_checked(paper_session, text, plan="cost")
        assert len(got) > 0
        store = paper_session.store
        for residence, city in got:
            assert city in store.invoke(residence, "City")

    def test_set_attribute_item_raises_only_when_reached(self, paper_session):
        # A non-path SELECT item raises once some binding reaches it, as
        # the joint walk did; an empty stream reaches none.
        walker = paper_session.evaluator().walker
        name = parse_query("SELECT X.Name FROM Person X").select[0]
        items = (name, ast.SetItem(var=Y, name="F"))
        state = [ColumnBatch({X}, {X: [Atom("mary123")]}, 1)]
        with pytest.raises(XsqlError):
            set(operators._project(walker, items, state))
        empty = [ColumnBatch({X}, {X: []}, 0)]
        assert list(operators._project(walker, items, empty)) == []
        # An earlier item with no value stops the row before it, on one
        # key and on many.
        nobody = parse_query("SELECT X.Name['nobody'] FROM Person X")
        items = (nobody.select[0], ast.SetItem(var=Y, name="F"))
        two = [ColumnBatch({X}, {X: [Atom("mary123"), Atom("pat")]}, 2)]
        for rows in (state, two):
            assert list(operators._project(walker, items, rows)) == []


class TestJoinEdges:
    def test_duplicate_join_keys_keep_the_row_join_order(self, paper_session):
        store = paper_session.store
        employees = sorted(store.extent("Employee"), key=str)
        for employee in employees[:4]:
            store.set_attr(employee, "Salary", Value(50_000))
        with checked_operators() as seen:
            got = paper_session.query(J1, plan="cost")
        assert seen["HashJoin"] == 1
        assert got.rows() == paper_session.query(J1, plan="none").rows()
        duplicated = {(x, y) for x in employees[:4] for y in employees[:4]}
        assert duplicated <= got.rows()

    def test_semi_join_against_ground_path(self, paper_session):
        text = (
            "SELECT X FROM Employee X "
            "WHERE X.Salary =some mary123.Salary"
        )
        with checked_operators() as seen:
            got = paper_session.query(text, plan="cost")
        assert seen["SemiJoin"] == 1
        assert got.rows() == paper_session.query(text, plan="none").rows()


# ----------------------------------------------------------------------
# guard: the analytic shapes never fall back to row dicts
# ----------------------------------------------------------------------


def test_p4_p11_j1_run_without_row_dicts(paper_session, monkeypatch):
    expected = {
        text: paper_session.query(text, plan="none").rows()
        for text in (P4, P11, J1)
    }

    def forbidden(*args, **kw):
        raise AssertionError("row-dict round trip on a columnar path")

    monkeypatch.setattr(ColumnBatch, "to_rows", forbidden)
    monkeypatch.setattr(ColumnBatch, "from_rows", classmethod(forbidden))
    monkeypatch.setattr(batches, "cross_state", forbidden)
    monkeypatch.setattr(operators, "cross_state", forbidden)
    for text, rows in expected.items():
        assert paper_session.query(text, plan="cost").rows() == rows


def test_project_writes_at_most_the_memo_capacity(monkeypatch):
    # More projected keys than the walker memo holds: the run still
    # evaluates every item key, but writes only as many "select" memo
    # entries as the memo can hold -- the memo's one budget rule, which
    # PathWalker.memoized applies to every other bulk call.
    from repro.xsql.paths import PathWalker

    expected = make_paper_session().query(P11, plan="cost").rows()
    init = PathWalker.__init__
    put = PathWalker.memo_put
    token = PathWalker.memo_token
    written = []
    # The walker's token table is bounded by the memo capacity, so
    # tags are recorded as tokens are issued.
    tags = {}

    def tiny_memo(self, *args, **kw):
        init(self, *args, **kw)
        self._memo_cache_cap = 1

    def tagging_token(self, tag, node):
        issued = token(self, tag, node)
        tags[id(self), issued] = tag
        return issued

    def counting_put(self, key, value):
        written.append(tags.get((id(self), key[0])))
        put(self, key, value)

    monkeypatch.setattr(PathWalker, "__init__", tiny_memo)
    monkeypatch.setattr(PathWalker, "memo_put", counting_put)
    monkeypatch.setattr(PathWalker, "memo_token", tagging_token)
    session = make_paper_session()
    assert session.query(P11, plan="cost").rows() == expected
    assert written.count("select") == 1
