"""The unified ExecutionOptions API and columnar operator execution.

Covers:

* :class:`ExecutionOptions` validation and the ``coerce`` rules (loose
  kwargs as thin aliases, ``None`` meaning "keep the base value");
* the statement cache keyed on the frozen options tuple — equivalent
  calls share one compiled entry, differing options do not;
* the columnar operator tree returning bit-identical results to the
  row-at-a-time ``Evaluator.run`` — equal row *sets* and equal ordered
  *enumeration* — across plans;
* EXPLAIN ANALYZE surfacing rows-per-batch counters;
* the removed ``workers`` knob staying removed: the record, the session
  and the REPL all reject it.
"""

import dataclasses
import json

import pytest

from repro.errors import QueryError
from repro.schema.figure1 import build_figure1_schema
from repro.workloads.paper_db import populate_paper_database
from repro.xsql import ExecutionOptions
from repro.xsql.evaluator import Evaluator
from repro.xsql.repl import main as repl_main
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
        assert opts.join_mode == "hash"
        assert [field.name for field in dataclasses.fields(opts)] == [
            "plan",
            "engine",
            "join_mode",
            "pointer_join",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(plan="speedy"),
            dict(engine="turbo"),
            dict(join_mode="sort"),
            dict(pointer_join="sideways"),
            dict(plan="COST"),
            dict(engine=None),
            dict(join_mode=""),
            dict(pointer_join=True),
            dict(plan=None),
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(QueryError):
            ExecutionOptions(**bad).validate()

    def test_with_overrides_revalidates(self):
        opts = ExecutionOptions(plan="cost")
        assert opts.with_overrides(join_mode="nested").join_mode == "nested"
        with pytest.raises(QueryError):
            opts.with_overrides(join_mode="sort")

    def test_session_rejects_bad_options_early(self, session):
        with pytest.raises(QueryError):
            session.query("SELECT X FROM Person X", plan="speedy")
        with pytest.raises(QueryError):
            session.query("SELECT X FROM Person X", options="columnar")


class TestCoerce:
    def test_kwargs_override_base(self):
        base = ExecutionOptions(plan="cost", pointer_join="force")
        merged = ExecutionOptions.coerce(base, plan="greedy")
        assert merged.plan == "greedy"
        assert merged.pointer_join == "force"

    def test_none_keeps_base_value(self):
        base = ExecutionOptions(join_mode="nested", pointer_join="off")
        merged = ExecutionOptions.coerce(
            base, plan=None, join_mode=None, pointer_join=None
        )
        assert merged == base

    def test_loose_kwargs_equal_explicit_record(self, session):
        via_kwargs = session.prepare(Q_JOIN, plan="cost", join_mode="nested")
        via_record = session.prepare(
            Q_JOIN, options=ExecutionOptions(plan="cost", join_mode="nested")
        )
        assert via_kwargs.options == via_record.options
        assert via_kwargs is via_record  # same statement-cache entry


class TestStatementCache:
    def test_cache_keyed_on_options(self, session):
        one = session.prepare(Q_JOIN, plan="cost")
        two = session.prepare(Q_JOIN, plan="cost", join_mode="nested")
        again = session.prepare(Q_JOIN, plan="cost")
        assert one is again
        assert two is not one
        assert two.options.cache_key() != one.options.cache_key()
        assert len(one.options.cache_key()) == 4


class TestColumnarEquivalence:
    @pytest.mark.parametrize("plan", ["none", "greedy", "typed", "cost"])
    @pytest.mark.parametrize("text", [Q_JOIN, Q_QUANT, Q_OR])
    def test_matches_rows_mode_ordered(self, session, plan, text):
        """The operator tree enumerates exactly what the row-at-a-time
        ``Evaluator.run`` produces for the same statement."""
        statement = session.prepare(text, plan=plan).statement
        reference = Evaluator(session.store).run(statement)
        columnar = session.query(text, plan=plan)
        assert columnar.rows() == reference.rows()
        assert list(columnar) == list(reference)

    def test_warm_rerun_is_stable(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost")
        first = compiled.run()
        second = compiled.run()
        assert list(first) == list(second)

    def test_naive_engine_matches_reference(self, session):
        ref = session.query(Q_JOIN)
        naive = session.query(Q_JOIN, engine="naive")
        assert naive.rows() == ref.rows()


class TestExplainCounters:
    def test_analyze_shows_batch_counters(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost")
        text = compiled.explain(analyze=True)
        assert "rows/batch=" in text
        data = json.loads(compiled.explain(format="json", analyze=True))
        ops = [data["operators"]]
        while ops:
            node = ops.pop()
            assert "rows_per_batch" in node
            ops.extend(node.get("children", []))

    def test_default_run_uses_one_worker(self, session):
        """Execution is sequential: no knob, line or counter names workers."""
        compiled = session.prepare(Q_JOIN, plan="cost")
        text = compiled.explain(analyze=True)
        assert "join_mode=hash pointer_join=" in text
        assert "workers" not in text and "morsels" not in text
        data = json.loads(compiled.explain(format="json", analyze=True))
        assert set(data["pipeline"]) == {
            "plan",
            "engine",
            "join_mode",
            "pointer_join",
        }
        ops = [data["operators"]]
        while ops:
            node = ops.pop()
            assert "workers" not in node and "morsels" not in node
            ops.extend(node.get("children", []))

    def test_explain_with_options_recompiles(self, session):
        compiled = session.prepare(Q_JOIN, plan="cost")
        text = compiled.explain(
            options=ExecutionOptions(plan="cost", pointer_join="off"),
            analyze=True,
        )
        assert "join_mode=hash pointer_join=off" in text
        assert "join_mode=hash pointer_join=auto" in compiled.explain()


class TestWorkersRemoved:
    def test_options_reject_workers(self):
        with pytest.raises(TypeError):
            ExecutionOptions(workers=2)

    def test_coerce_rejects_workers(self):
        with pytest.raises(TypeError):
            ExecutionOptions.coerce(None, workers=2)

    @pytest.mark.parametrize("method", ["prepare", "query", "explain"])
    def test_session_rejects_workers(self, session, method):
        with pytest.raises(TypeError):
            getattr(session, method)(Q_JOIN, plan="cost", workers=2)

    def test_repl_rejects_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            repl_main(["--paper", "--workers", "2"])
        assert exc.value.code != 0
        assert "--workers" in capsys.readouterr().err
