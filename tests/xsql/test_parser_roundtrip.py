"""Property: the parser's rendering re-parses to the same AST.

``str(query)`` is used in error messages, EXPLAIN output, and column
names; keeping it re-parseable means printed queries are always valid
XSQL.
"""

import pytest

from repro.xsql.parser import parse_query, parse_statement

CORPUS = [
    "SELECT mary123.Residence.City",
    "SELECT uniSQL.President.FamMembers.Name",
    "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
    "SELECT Z FROM Employee X, Automobile Y "
    "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
    "SELECT Y FROM Person X WHERE X.Y.City['newyork']",
    "SELECT #X WHERE TurboEngine subclassOf #X",
    "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
    "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] and "
    "X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
    "and X.President.Age < 30",
    "SELECT X WHERE X.Residence =all X.FamMembers.Residence",
    "SELECT X WHERE Y.FamMembers.Age all<all X.FamMembers.Age",
    "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4",
    "SELECT X.Name, W.Salary FROM Company X WHERE X.Divisions.Employees[W]",
    "SELECT X, Y FROM Company X "
    "WHERE X.Name =some X.Divisions.Employees[Y].Name",
    "SELECT EmpSalary = W.Salary FROM Company X OID FUNCTION OF X, W "
    "WHERE X.Divisions.Employees[W]",
    "SELECT CompName = Y.Name, Beneficiaries = {W} FROM Company Y "
    "OID FUNCTION OF Y WHERE Y.Retirees[W]",
    "SELECT X FROM Vehicle X WHERE 200000 <all "
    "(SELECT W FROM Division Y WHERE X.Manufacturer.(M @ Y.Name)[W])",
    "SELECT X WHERE X instanceOf Employee",
    "SELECT X WHERE not X.Retirees",
    "SELECT X WHERE X.A and (X.B or X.C)",
    "SELECT X FROM Person X WHERE X.*P.City['newyork']",
    "SELECT X FROM Person X UNION SELECT X FROM Company X",
]


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip(text):
    first = parse_statement(text)
    rendered = str(first)
    second = parse_statement(rendered)
    # Desugaring introduces fresh variables whose names depend on the
    # pass; compare the re-rendered forms, which normalizes them.
    assert str(second) == rendered, f"{text!r} -> {rendered!r}"


# String literals holding the two characters the lexer escapes: the
# quote and the backslash (a raw ``\'``, a doubled backslash, a
# backslash right before the closing quote).
ESCAPED_LITERALS = [
    r"'it\'s'",
    r"'back\\slash'",
    r"'both \\ and \' here'",
    r"'\\\''",
    r"'ends with \\'",
]


@pytest.mark.parametrize("literal", ESCAPED_LITERALS)
def test_escaped_string_literals_reparse(literal):
    for text in (
        f"SELECT X FROM Person X WHERE X.Name[{literal}]",
        f"SELECT X FROM Person X WHERE X.Name = {literal}",
        f"SELECT X FROM Person X WHERE X.Name some= {{{literal}, 'b'}}",
    ):
        query = parse_query(text)
        assert parse_query(str(query)) == query, text


def test_printed_literal_escapes_quote_and_backslash():
    from repro.oid import Value

    assert str(Value("it's")) == r"'it\'s'"
    assert str(Value("a\\b")) == r"'a\\b'"
    query = parse_query(r"SELECT X WHERE X.Name['it\'s \\']")
    assert r"'it\'s \\'" in str(query)
