"""Every query-shaped statement binds through the operator tree.

Object creation (§4.1), views (§4.2) and ``INSERT INTO … SELECT`` group
or project the binding stage of the same lowered tree a plain query
runs on; the tuple-at-a-time ``Evaluator.env_stream`` is only the
reference the tests compare against.

* the guard makes ``Evaluator.env_stream`` raise and runs every such
  statement;
* the property test checks the tree's binding stream against
  ``env_stream`` over difftest-generated queries;
* the agreement test runs creation under every plan and join mode and
  requires identical oids and an identical store image.
"""

import pytest

from repro.difftest.grammar import GeneratorConfig, QueryGenerator, SchemaModel
from repro.errors import XsqlError
from repro.storage.smoke import canonical
from repro.workloads.generator import WORKLOAD_PRESETS, generate_database
from repro.xsql import operators
from repro.xsql.evaluator import Evaluator
from repro.xsql.session import Session
from tests.conftest import make_paper_session

VIEW = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, Salary = Numeral
SELECT CompName = X.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions.Employees[W]
"""

CREATING = (
    "SELECT Name = X.Name, Boss = X.President.Name FROM Company X "
    "OID FUNCTION OF X"
)

VIEW_READ = "SELECT V.Salary FROM CompSalaries V"


def test_statements_never_call_env_stream(monkeypatch):
    def refuse(self, query, initial=None):
        raise AssertionError("Evaluator.env_stream was called")

    monkeypatch.setattr(Evaluator, "env_stream", refuse)
    session = make_paper_session()

    created = session.execute(VIEW).created
    assert created
    assert len(session.query(CREATING).created) == 2
    refreshed = session.refresh_view("CompSalaries").outcome.created
    assert set(refreshed) == set(created)

    # DDL bumps the schema: the next read rebuilds the view.
    session.execute("CREATE CLASS Spacecraft")
    assert len(session.query(VIEW_READ)) > 0
    status = session.views.maintenance_status()["CompSalaries"]
    assert status["last_kind"] == "rebuild"

    session.execute("CREATE RELATION Salaries (who, pay)")
    session.execute("INSERT INTO Salaries SELECT W, W.Salary FROM Employee W")
    assert len(session.store.relation("Salaries")) == len(
        session.store.extent("Employee")
    )


def _frozen(envs):
    return {frozenset(env.items()) for env in envs}


def _outcome(fn):
    try:
        return "ok", fn()
    except XsqlError as exc:
        return "error", type(exc).__name__


STORES = {
    "figure1": lambda: make_paper_session().store,
    "generated": lambda: generate_database(WORKLOAD_PRESETS["tiny"]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("store_name", sorted(STORES))
def test_binding_stage_equals_env_stream(store_name, seed):
    store = STORES[store_name]()
    generator = QueryGenerator(
        SchemaModel.from_store(store), GeneratorConfig(), seed
    )
    evaluator = Session(store).evaluator()
    reference = Evaluator(store)
    compared = 0
    for query in generator.generate_many(40):
        tree = _outcome(lambda: _frozen(operators.bindings(query, evaluator)))
        expected = _outcome(lambda: _frozen(reference.env_stream(query)))
        assert tree == expected, str(query)
        compared += tree[0] == "ok"
    assert compared >= 30


def _creation_run(plan, join_mode):
    session = make_paper_session()
    view = session.query(VIEW, plan=plan, join_mode=join_mode).created
    created = session.query(CREATING, plan=plan, join_mode=join_mode).created
    return (sorted(map(str, view)), sorted(map(str, created))), canonical(
        session.store
    )


def test_creation_agrees_across_plans_and_join_modes():
    reference = _creation_run("none", "hash")
    assert reference[0][0] and reference[0][1]
    for plan in ("none", "greedy", "typed", "cost"):
        for join_mode in ("hash", "nested"):
            assert _creation_run(plan, join_mode) == reference, (
                plan,
                join_mode,
            )
