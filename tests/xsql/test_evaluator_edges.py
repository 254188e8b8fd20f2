"""Edge-case tests for the evaluator: operators, guards, rare shapes."""

import pytest

from repro.errors import QueryError, UnsafeQueryError
from repro.oid import Atom, Value, Variable, VarSort
from repro.xsql import ast
from repro.xsql.evaluator import Evaluator, NaiveEvaluator
from repro.xsql.parser import parse_query
from tests.conftest import names


class TestSetOperandOperators:
    def test_intersect(self, shared_paper_session):
        result = shared_paper_session.query(
            "SELECT X FROM Person X WHERE X.Residence.City =some "
            "({'newyork', 'austin'} INTERSECT {'austin'}) and X.Age > 45"
        )
        assert "john13" in names(result)
        assert "ben" not in names(result)  # ben lives in newyork

    def test_minus(self, shared_paper_session):
        result = shared_paper_session.query(
            "SELECT X FROM Person X WHERE X.Residence.City =some "
            "({'newyork', 'austin'} MINUS {'austin'})"
        )
        cities = {"mary123", "ben"} | {f"benfam{i}" for i in range(1, 6)}
        assert set(names(result)) == cities

    def test_path_union_path(self, shared_paper_session):
        result = shared_paper_session.query(
            "SELECT W FROM Company X WHERE "
            "W =some (X.Retirees UNION X.Divisions.Employees) "
            "and X.Name['UniSQL']"
        )
        assert set(names(result)) == {"ret1", "john13", "ben", "rich"}


class TestComparisonFastPath:
    def test_membership_binding_matches_enumeration(
        self, shared_paper_session
    ):
        # Z =some <subquery> uses the bind-from-values fast path; the
        # equivalent filter formulation enumerates. Answers must agree.
        fast = shared_paper_session.query(
            "SELECT Z WHERE Z =some (SELECT W FROM Employee W "
            "WHERE W.Salary > 200000)"
        )
        slow = shared_paper_session.query(
            "SELECT W FROM Employee W WHERE W.Salary > 200000"
        )
        assert fast.single_column() == slow.single_column()

    def test_class_atom_not_bound_to_individual_var(
        self, shared_paper_session
    ):
        # the subquery yields class atoms; an individual variable must
        # not receive them through the fast path.
        result = shared_paper_session.query(
            "SELECT Z WHERE Z =some (SELECT #C WHERE "
            "TurboEngine subclassOf #C)"
        )
        assert len(result) == 0

    def test_ne_not_fast_pathed(self, shared_paper_session):
        # != with an unbound side keeps full enumeration semantics.
        smart = shared_paper_session.query(
            "SELECT X FROM Division X WHERE X.Name !=some "
            "(SELECT W WHERE d_eng.Name[W])"
        )
        assert "d_sales" in names(smart)


class TestPathVarGuards:
    def test_path_var_in_comparison_rejected(self, shared_paper_session):
        path_var = Variable("P", VarSort.PATH)
        comparison = ast.Comparison(
            lhs=ast.PathOperand(ast.path_of_term(path_var)),
            op="!=",
            rhs=ast.PathOperand(ast.path_of_term(Value(1))),
        )
        query = ast.Query(
            select=(ast.PathItem(ast.path_of_term(Value(1))),),
            where=comparison,
        )
        with pytest.raises(UnsafeQueryError):
            Evaluator(shared_paper_session.store).run(query)

    def test_naive_rejects_path_vars(self, shared_paper_session):
        with pytest.raises(UnsafeQueryError):
            shared_paper_session.query(
                "SELECT X FROM Person X WHERE X.*P.City['newyork']",
                engine="naive",
            )


class TestUpdateEdgeCases:
    def test_update_unknown_class(self, paper_session):
        with pytest.raises(Exception):
            paper_session.execute(
                "UPDATE CLASS Martian SET x.Foo = 1"
            )

    def test_update_assigning_empty_unsets(self, paper_session):
        store = paper_session.store
        assert store.invoke_scalar(Atom("d_eng"), "Function") is not None
        # RHS path with no value: the attribute becomes undefined.
        paper_session.execute(
            "UPDATE CLASS Division SET d_eng.Function = ghost99.Name"
        )
        assert store.invoke_scalar(Atom("d_eng"), "Function") is None

    def test_multiple_assignments(self, paper_session):
        paper_session.execute(
            "UPDATE CLASS Division SET d_eng.Function = 'a', "
            "d_adv.Function = 'b'"
        )
        store = paper_session.store
        assert store.invoke_scalar(Atom("d_eng"), "Function") == Value("a")
        assert store.invoke_scalar(Atom("d_adv"), "Function") == Value("b")


#: A §5 statement (its WHERE holds an UPDATE, so the tuple-at-a-time
#: evaluator runs it) with a correlated subquery.  The update's prefix
#: reaches no object, so running the statement writes nothing.
CORRELATED_UPDATE = (
    "SELECT X FROM Division X WHERE X.Manager =some "
    "(SELECT W FROM Employee W WHERE X.Employees[W] and W.Salary > 20000) "
    "and (UPDATE CLASS Division SET X.Manager[nobody].Salary = 1)"
)


@pytest.fixture
def subquery_runs(monkeypatch):
    """Records every subquery evaluation (a run with outer bindings)."""
    calls = []
    run = Evaluator.run

    def counting(self, query, initial=None):
        if initial is not None:
            calls.append(query)
        return run(self, query, initial)

    monkeypatch.setattr(Evaluator, "run", counting)
    return calls


class TestSubqueryMemo:
    def test_answers_survive_across_runs(self, paper_session, subquery_runs):
        compiled = paper_session.prepare(CORRELATED_UPDATE)
        first = compiled.run()
        assert len(first) > 0
        assert subquery_runs
        subquery_runs.clear()
        second = compiled.run()
        assert list(second) == list(first)
        assert subquery_runs == []

    def test_write_between_runs_gives_new_answer(
        self, paper_session, subquery_runs
    ):
        store = paper_session.store
        compiled = paper_session.prepare(CORRELATED_UPDATE)
        first = compiled.run().single_column()
        division = sorted(first, key=str)[0]
        manager = store.invoke_scalar(division, "Manager")
        store.set_attr(manager, "Salary", Value(10))
        subquery_runs.clear()
        second = compiled.run().single_column()
        assert subquery_runs
        assert division not in second
        assert second < first

    def test_update_earlier_in_where_is_seen_by_subquery(self, paper_session):
        # Each binding's UPDATE lowers its division's manager below the
        # uncorrelated subquery's bound before the subquery runs: a
        # memoized answer from an earlier binding would miss it.
        result = paper_session.query(
            "SELECT X FROM Division X WHERE "
            "(UPDATE CLASS Employee SET X.Manager.Salary = 1) and "
            "X.Manager =some (SELECT W FROM Employee W WHERE W.Salary < 2)"
        )
        managed = {
            division
            for division in paper_session.store.extent("Division")
            if paper_session.store.invoke_scalar(division, "Manager")
        }
        assert len(managed) > 1
        assert result.single_column() == managed


class TestResultColumnShapes:
    def test_default_column_is_path_text(self, shared_paper_session):
        result = shared_paper_session.query("SELECT mary123.Residence.City")
        assert result.columns == ("mary123.Residence.City",)

    def test_union_of_three(self, shared_paper_session):
        result = shared_paper_session.query(
            "SELECT X FROM Motorbike X UNION SELECT X FROM Bicycle X "
            "UNION SELECT X FROM Automobile X"
        )
        assert len(result) == 4

    def test_intersect_queries(self, shared_paper_session):
        result = shared_paper_session.query(
            "SELECT X FROM Employee X INTERSECT "
            "SELECT X FROM Person X WHERE X.Age > 50"
        )
        assert set(names(result)) == {"pat", "ret1"}
