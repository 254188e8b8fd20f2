"""Tests for the exception taxonomy and failure injection."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_xsql_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.XsqlError), name

    def test_schema_errors(self):
        assert issubclass(errors.CyclicHierarchyError, errors.SchemaError)
        assert issubclass(errors.UnknownClassError, errors.SchemaError)
        assert issubclass(errors.SignatureError, errors.SchemaError)

    def test_typing_errors(self):
        assert issubclass(errors.IllTypedQueryError, errors.TypingError)
        assert issubclass(errors.InapplicableMethodError, errors.TypingError)
        assert issubclass(errors.ValueTypeError, errors.TypingError)

    def test_query_errors(self):
        assert issubclass(errors.IllDefinedQueryError, errors.QueryError)
        assert issubclass(errors.UnsafeQueryError, errors.QueryError)

    def test_view_errors(self):
        assert issubclass(errors.NonUpdatableViewError, errors.ViewError)


class TestSyntaxErrorPositions:
    def test_position_embedded_in_message(self):
        error = errors.XsqlSyntaxError("boom", line=3, column=7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7

    def test_position_optional(self):
        error = errors.XsqlSyntaxError("boom")
        assert str(error) == "boom"


class TestFailureInjection:
    """End-to-end: each failure mode surfaces as its declared exception."""

    def test_cycle(self):
        from repro.datamodel import ObjectStore

        store = ObjectStore()
        store.declare_class("A")
        store.declare_class("B", ["A"])
        with pytest.raises(errors.CyclicHierarchyError):
            store.declare_class("A", ["B"])

    def test_parse_error_has_position(self):
        from repro.xsql.parser import parse_query

        with pytest.raises(errors.XsqlSyntaxError) as excinfo:
            parse_query("SELECT X FROM\nWHERE")
        assert excinfo.value.line == 2

    def test_one_failed_statement_leaves_session_usable(self, paper_session):
        with pytest.raises(errors.XsqlSyntaxError):
            paper_session.execute("SELECT FROM WHERE")
        result = paper_session.query("SELECT X FROM Company X")
        assert len(result) == 2

    def test_ill_defined_creation_partial_state_documented(
        self, paper_session
    ):
        # The run-time error of §4.1 aborts the statement; objects created
        # before the conflict was detected may remain (no transactions in
        # the paper's model) but the session keeps working.
        with pytest.raises(errors.IllDefinedQueryError):
            paper_session.execute(
                "SELECT CompName = X.Name, EmpSalary = W.Salary "
                "FROM Company X OID FUNCTION OF X "
                "WHERE X.Divisions.Employees[W]"
            )
        assert len(paper_session.query("SELECT X FROM Company X")) == 2
