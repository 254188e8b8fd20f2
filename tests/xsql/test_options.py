"""The unified ExecutionOptions API and columnar operator execution.

Covers:

* :class:`ExecutionOptions` validation and the ``coerce`` rules (loose
  kwargs as thin aliases, ``None`` meaning "keep the base value");
* the statement cache keyed on the frozen options tuple — equivalent
  calls share one compiled entry, differing options do not;
* the columnar operator tree returning bit-identical results to the
  row-at-a-time ``Evaluator.run`` — equal row *sets* and equal ordered
  *enumeration* — across plans and worker counts;
* EXPLAIN ANALYZE surfacing rows-per-batch and morsel/worker counters.
"""

import json

import pytest

from repro.errors import QueryError
from repro.schema.figure1 import build_figure1_schema
from repro.workloads.paper_db import populate_paper_database
from repro.xsql import ExecutionOptions
from repro.xsql.evaluator import Evaluator
from repro.xsql.session import Session


@pytest.fixture()
def session():
    s = Session()
    build_figure1_schema(s.store)
    populate_paper_database(s.store)
    return s


Q_JOIN = (
    "SELECT Z FROM Employee X, Automobile Y "
    "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]"
)
Q_QUANT = (
    "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
    "and X.Residence =all X.FamMembers.Residence and X.Salary < 35000"
)
Q_OR = (
    "SELECT X FROM Vehicle X "
    "WHERE X.Manufacturer.Name['toyotaCo'] or X.Drivetrain.Engine.HP > 150"
)


class TestValidation:
    def test_defaults_validate(self):
        opts = ExecutionOptions()
        assert opts.validate() is opts
        assert opts.plan == "none"
        assert opts.workers == 1
        assert opts.join_mode == "hash"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(plan="speedy"),
            dict(engine="turbo"),
            dict(join_mode="sort"),
            dict(pointer_join="sideways"),
            dict(workers=0),
            dict(workers=-1),
            dict(workers=65),
            dict(workers=True),
            dict(workers="2"),
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(QueryError):
            ExecutionOptions(**bad).validate()

    def test_with_overrides_revalidates(self):
        opts = ExecutionOptions(plan="cost")
        assert opts.with_overrides(workers=4).workers == 4
        with pytest.raises(QueryError):
            opts.with_overrides(workers=0)

    def test_session_rejects_bad_options_early(self, session):
        with pytest.raises(QueryError):
            session.query("SELECT X FROM Person X", plan="speedy")
        with pytest.raises(QueryError):
            session.query("SELECT X FROM Person X", options="columnar")


class TestCoerce:
    def test_kwargs_override_base(self):
        base = ExecutionOptions(plan="cost", workers=4)
        merged = ExecutionOptions.coerce(base, plan="greedy")
        assert merged.plan == "greedy"
        assert merged.workers == 4

    def test_none_keeps_base_value(self):
        base = ExecutionOptions(join_mode="nested", workers=2)
        merged = ExecutionOptions.coerce(
            base, plan=None, join_mode=None, workers=None
        )
        assert merged == base

    def test_loose_kwargs_equal_explicit_record(self, session):
        via_kwargs = session.prepare(Q_JOIN, plan="cost", workers=2)
        via_record = session.prepare(
            Q_JOIN, options=ExecutionOptions(plan="cost", workers=2)
        )
        assert via_kwargs.options == via_record.options
        assert via_kwargs is via_record  # same statement-cache entry


class TestStatementCache:
    def test_cache_keyed_on_options(self, session):
        one = session.prepare(Q_JOIN, plan="cost")
        two = session.prepare(Q_JOIN, plan="cost", workers=2)
        again = session.prepare(Q_JOIN, plan="cost")
        assert one is again
        assert two is not one
        assert two.options.cache_key() != one.options.cache_key()
        assert len(one.options.cache_key()) == 5


class TestColumnarEquivalence:
    @pytest.mark.parametrize("plan", ["none", "greedy", "typed", "cost"])
    @pytest.mark.parametrize("text", [Q_JOIN, Q_QUANT, Q_OR])
    def test_matches_rows_mode_ordered(self, session, plan, text):
        """Every worker count enumerates exactly what the row-at-a-time
        ``Evaluator.run`` produces for the same statement."""
        statement = session.prepare(text, plan=plan).statement
        reference = Evaluator(session.store).run(statement)
        for workers in (1, 2, 4):
            columnar = session.query(text, plan=plan, workers=workers)
            assert columnar.rows() == reference.rows()
            assert list(columnar) == list(reference)

    def test_warm_rerun_is_stable(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost", workers=2)
        first = compiled.run()
        second = compiled.run()
        assert list(first) == list(second)

    def test_naive_engine_ignores_workers(self, session):
        ref = session.query(Q_JOIN, engine="naive")
        col = session.query(Q_JOIN, engine="naive", workers=2)
        assert col.rows() == ref.rows()


class TestExplainCounters:
    def test_analyze_shows_morsel_and_worker_counters(self, session):
        compiled = session.prepare(
            Q_JOIN, options=ExecutionOptions(plan="cost", workers=2)
        )
        text = compiled.explain(analyze=True)
        assert "rows/batch=" in text
        assert "morsels=" in text
        assert "join_mode=hash workers=2 pointer_join=" in text
        data = json.loads(compiled.explain(format="json", analyze=True))
        ops = [data["operators"]]
        flat = []
        while ops:
            node = ops.pop()
            flat.append(node)
            ops.extend(node.get("children", []))
        scans = [node for node in flat if "morsels" in node]
        assert scans, "no scan operator recorded morsel counters"
        for node in scans:
            assert node["morsels"] >= 1
            assert node["workers"] >= 1

    def test_default_run_uses_one_worker(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost")
        text = compiled.explain(analyze=True)
        assert "join_mode=hash workers=1 pointer_join=" in text
        data = json.loads(compiled.explain(format="json", analyze=True))
        ops = [data["operators"]]
        while ops:
            node = ops.pop()
            assert node.get("workers", 1) == 1
            ops.extend(node.get("children", []))

    def test_explain_with_options_recompiles(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost")
        text = compiled.explain(
            options=ExecutionOptions(plan="cost", workers=2),
            analyze=True,
        )
        assert "workers=2 pointer_join=" in text
        assert "workers=1 pointer_join=" in compiled.explain()
