"""Tests for the Theorem 6.1 optimizer (``plan="typed"``)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oid import Atom, Variable
from repro.typing import (
    analyze,
    build_typed_query,
    extent_restrictions,
    range_classes,
    reorder,
)
from repro.typing.plans import ExecutionPlan
from repro.typing.strict import is_coherent
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql import operators
from repro.xsql.parser import parse_query
from repro.xsql.session import Session


def _typed_and_plain(store, text):
    session = Session(store)
    return (
        session.query(text, plan="typed"),
        session.query(text, plan="none"),
    )

FRAGMENT = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)

TYPED_QUERIES = [
    FRAGMENT,
    "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
    "and M.President.OwnedVehicles[X]",
    "SELECT X FROM Employee X WHERE X.Salary[W] and W > 50000",
    "SELECT X FROM Company X WHERE X.Divisions[D].Manager[M] "
    "and M.Salary[W] and W > 100000",
    "SELECT X FROM Person X WHERE X.Residence[R] and R.City[C]",
]


class TestRunEquivalence:
    @pytest.mark.parametrize("text", TYPED_QUERIES)
    def test_typed_equals_untyped_on_paper_db(
        self, shared_paper_session, text
    ):
        typed, plain = _typed_and_plain(shared_paper_session.store, text)
        assert typed.rows() == plain.rows()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_typed_equals_untyped_on_synthetic(self, seed):
        store = generate_database(
            WorkloadConfig(n_people=30, n_companies=3, seed=seed)
        )
        typed, plain = _typed_and_plain(store, FRAGMENT)
        assert typed.rows() == plain.rows()

    def test_not_strict_falls_back_to_greedy(self, nobel_session):
        """Outside the strict fragment Theorem 6.1 does not apply: the
        typed plan falls back to the greedy planner, same answers."""
        text = "SELECT X WHERE X.WonNobelPrize"
        compiled = nobel_session.prepare(text, plan="typed")
        assert not compiled.report.strict
        assert nobel_session.stats()["counters"]["plan.typed.fallback"] == 1
        plain = nobel_session.query(text, plan="none")
        assert compiled.run().rows() == plain.rows()

    def test_precomputed_report_reused(self, shared_paper_session):
        compiled = shared_paper_session.prepare(FRAGMENT, plan="typed")
        report = compiled.report
        first = compiled.run()
        second = compiled.run()
        assert compiled.report is report
        assert first.rows() == second.rows()


class TestTheoremParts:
    def test_plan_independence(self, shared_paper_session):
        """Theorem 6.1(1): every coherent plan yields the same result."""
        store = shared_paper_session.store
        query = parse_query(FRAGMENT)
        report = analyze(query, store)
        assert report.strict
        assignment, _plan = report.strict_witness
        typed_query = report.typed_query
        session = Session(store)
        results = []
        from repro.typing.plans import all_plans

        for plan in all_plans(typed_query):
            if is_coherent(assignment, plan, typed_query, store):
                restrictions = extent_restrictions(
                    store, range_classes(store, assignment, typed_query), query
                )
                reordered = reorder(query, typed_query, plan)
                root = operators.lower_statement(
                    reordered, operators.LowerSpec(restrictions=restrictions)
                )
                result = operators.execute(
                    root, session.evaluator(restrictions)
                )
                results.append(result.rows())
        assert results and all(r == results[0] for r in results)

    def test_restrictions_computed_from_ranges(self, shared_paper_session):
        store = shared_paper_session.store
        query = parse_query(FRAGMENT)
        report = analyze(query, store)
        assignment, _ = report.strict_witness
        restrictions = extent_restrictions(
            store, range_classes(store, assignment, report.typed_query), query
        )
        m_allowed = restrictions[Variable("M")]
        assert m_allowed == store.extent("Company")
        x_allowed = restrictions[Variable("X")]
        assert x_allowed <= store.extent("Vehicle")

    def test_reorder_respects_plan(self, shared_paper_session):
        store = shared_paper_session.store
        query = parse_query(FRAGMENT)
        report = analyze(query, store)
        _assignment, plan = report.strict_witness
        reordered = reorder(query, report.typed_query, plan)
        conjuncts = reordered.where.items
        # the Manufacturer path must now come before the President path.
        first = str(conjuncts[0])
        assert "Manufacturer" in first

    def test_reorder_keeps_non_path_conjuncts(self, shared_paper_session):
        store = shared_paper_session.store
        text = (
            "SELECT X FROM Employee X WHERE X.Salary[W] and W > 50000"
        )
        query = parse_query(text)
        report = analyze(query, store)
        reordered = reorder(
            query, report.typed_query, report.strict_witness[1]
        )
        evaluator = Session(store).evaluator()
        plain = operators.execute(operators.lower_statement(query), evaluator)
        result = operators.execute(
            operators.lower_statement(reordered), evaluator
        )
        assert result.rows() == plain.rows()


@given(seed=st.integers(0, 10_000))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_range_restriction_soundness_property(seed):
    """Theorem 6.1(2) as a property: restriction never changes answers."""
    store = generate_database(
        WorkloadConfig(n_people=16, n_companies=2, seed=seed)
    )
    typed, plain = _typed_and_plain(
        store, "SELECT X FROM Employee X WHERE X.Salary[W] and W > 100000"
    )
    assert typed.rows() == plain.rows()
