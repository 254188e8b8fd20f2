"""Tests for the well-typing spectrum (§6.2): liberal, strict, exemptions.

Every worked typing example of the paper is checked: the Nobel-prize query
(liberal but not strict, strict with the 0-th argument exempted), fragment
(17) with assignment (18) (strict via the plan with an arc from the first
to the second path expression), and fragment (19) with assignments
(18)/(20) (strict only via the plan third → second → first, and only with
``President : Organization => Person``).
"""

import pytest

from repro.oid import Atom
from repro.typing import (
    Exemptions,
    analyze,
    build_typed_query,
    find_coherent_pair,
    is_coherent,
)
from repro.typing.assignments import TypeAssignment, candidate_type_exprs
from repro.typing.plans import ExecutionPlan, all_plans
from repro.typing.strict import coherence_failure
from repro.xsql.parser import parse_query

FRAGMENT_17 = (
    "SELECT X FROM Vehicle X "
    "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]"
)
FRAGMENT_19 = (
    "SELECT X FROM Numeral Year "
    "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X] "
    "and OO_Forum.(Member @ Year)[M]"
)


class TestNobel:
    def test_liberal_but_not_strict(self, nobel_session):
        report = analyze("SELECT X WHERE X.WonNobelPrize", nobel_session.store)
        assert report.liberal and not report.strict
        assert report.discipline() == "liberal-only"

    def test_exempting_scope_argument_makes_strict(self, nobel_session):
        report = analyze(
            "SELECT X WHERE X.WonNobelPrize",
            nobel_session.store,
            Exemptions.for_method("WonNobelPrize", 0),
        )
        assert report.strict

    def test_conservative_from_clause_is_strict(self, nobel_session):
        report = analyze(
            "SELECT X FROM Scientist X WHERE X.WonNobelPrize",
            nobel_session.store,
        )
        assert report.strict


class TestFragment17:
    def test_strict_with_forward_plan(self, shared_paper_session):
        report = analyze(FRAGMENT_17, shared_paper_session.store)
        assert report.strict
        _assignment, plan = report.strict_witness
        assert plan.order == (0, 1)  # Manufacturer path first

    def test_reverse_plan_incoherent_with_18(self, shared_paper_session):
        # "It does not satisfy the second condition ... because M does
        # not occur in FROM."
        store = shared_paper_session.store
        typed_query = build_typed_query(parse_query(FRAGMENT_17))
        occurrences = typed_query.all_occurrences()
        assignment = TypeAssignment.of(
            {
                occ: candidate_type_exprs(store, occ)[0]
                for occ in occurrences
            }
        )
        reverse = ExecutionPlan((1, 0))
        failure = coherence_failure(assignment, reverse, typed_query, store)
        assert failure is not None and "President" in failure

    def test_typed_evaluation_matches_untyped(self, shared_paper_session):
        session = shared_paper_session
        typed_result = session.query(FRAGMENT_17, plan="typed")
        plain = session.query(FRAGMENT_17, plan="none")
        assert typed_result.rows() == plain.rows()


class TestFragment19:
    def test_only_plan_2_1_0_coherent(self, typing_session):
        report = analyze(FRAGMENT_19, typing_session.store)
        assert report.strict
        assignment, plan = report.strict_witness
        assert plan.order == (2, 1, 0)
        president = next(
            expr
            for occ, expr in assignment.entries
            if occ.method == Atom("President")
        )
        # A1: President gets Organization => Person, not Company => Person.
        assert president.scope == Atom("Organization")

    def test_company_president_assignment_never_coherent(
        self, typing_session
    ):
        store = typing_session.store
        typed_query = build_typed_query(parse_query(FRAGMENT_19))
        occurrences = typed_query.all_occurrences()

        def company_chooser(occ):
            candidates = candidate_type_exprs(store, occ)
            if occ.method == Atom("President"):
                return next(
                    c for c in candidates if c.scope == Atom("Company")
                )
            return candidates[0]

        assignment = TypeAssignment.of(
            {occ: company_chooser(occ) for occ in occurrences}
        )
        for plan in all_plans(typed_query):
            assert not is_coherent(assignment, plan, typed_query, store)

    def test_without_member_conjunct_not_strict(self, shared_paper_session):
        # Fragment (19) minus the OO_Forum conjunct: nothing ever binds M
        # or X to typed oids first (FROM declares only Year), so no plan
        # is coherent — exactly why the paper adds the Member path.
        report = analyze(
            "SELECT X FROM Numeral Year "
            "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]",
            shared_paper_session.store,
        )
        assert report.liberal and not report.strict


class TestIllTyped:
    def test_empty_range_rejected(self, shared_paper_session):
        # X both a Person (FROM) and the scope of Divisions (Company).
        report = analyze(
            "SELECT X FROM Person X WHERE X.Divisions[D]",
            shared_paper_session.store,
        )
        assert not report.liberal
        assert report.discipline() == "ill-typed"

    def test_unknown_method_rejected(self, shared_paper_session):
        report = analyze(
            "SELECT X FROM Person X WHERE X.Blarg[Y]",
            shared_paper_session.store,
        )
        assert not report.liberal

    def test_outside_fragment_reported(self, shared_paper_session):
        report = analyze(
            "SELECT X WHERE X.Age or X.Name", shared_paper_session.store
        )
        assert report.discipline() == "outside-fragment"
        assert report.unsupported_reason


class TestExemptionAlgebra:
    def test_occurrence_pinned_exemption(self, nobel_session):
        exemptions = Exemptions(
            by_occurrence=frozenset({(0, 1, 0)})
        )
        report = analyze(
            "SELECT X WHERE X.WonNobelPrize", nobel_session.store, exemptions
        )
        assert report.strict

    def test_all_of_merges(self):
        merged = Exemptions.all_of(
            [
                Exemptions.for_method("A", 0),
                Exemptions.for_method("B", 1),
            ]
        )
        assert ("A", 0) in merged.by_method
        assert ("B", 1) in merged.by_method

    def test_report_summary_renders(self, shared_paper_session):
        report = analyze(FRAGMENT_17, shared_paper_session.store)
        text = report.summary()
        assert "strict" in text and "plan" in text
