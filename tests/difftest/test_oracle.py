"""The oracle's engine matrix, skip classification, and judgement."""

import pytest

from repro.difftest.oracle import EngineOutcome, Oracle, OracleReport
from repro.workloads.generator import WORKLOAD_PRESETS, generate_database


@pytest.fixture(scope="module")
def oracle():
    return Oracle(generate_database(WORKLOAD_PRESETS["tiny"]))


def test_all_engines_agree_on_conjunctive_query(oracle):
    report = oracle.run(
        "SELECT X.Name FROM Employee X WHERE X.Salary > 20000"
    )
    assert report.agreed
    for name in (
        "reference",
        "cached",
        "naive",
        "flogic",
        "kv",
    ):
        assert report.outcomes[name].status == "ok", report.summary()
    assert report.outcomes["flogic"].rows == report.outcomes["reference"].rows


def test_cached_engine_hits_statement_cache(oracle):
    text = "SELECT X FROM Employee X WHERE X.Salary > 30000"
    oracle.run(text)
    before = oracle.session.stats()["counters"].get("cache.hit", 0)
    report = oracle.run(text)
    assert report.agreed
    after = oracle.session.stats()["counters"].get("cache.hit", 0)
    # Second oracle run re-prepares the same (text, plan) key: a hit,
    # plus the compiled query's own second execution.
    assert after > before


def test_flogic_skips_outside_fragment(oracle):
    report = oracle.run(
        "SELECT X FROM Person X WHERE (X.Age > 10) or (X.Age < 5)"
    )
    assert report.agreed
    assert report.outcomes["flogic"].status == "skip"
    assert report.outcomes["reference"].status == "ok"


def test_naive_skips_when_substitution_space_too_big(oracle):
    report = oracle.run(
        "SELECT X, Y, Z FROM Person X, Person Y, Person Z "
        "WHERE (X.Age > Y.Age) and (Y.Age > Z.Age)"
    )
    assert report.outcomes["naive"].status == "skip"
    assert "substitution space" in report.outcomes["naive"].detail
    assert report.agreed


def test_naive_can_be_disabled():
    oracle = Oracle(
        generate_database(WORKLOAD_PRESETS["tiny"]), naive_enabled=False
    )
    report = oracle.run("SELECT X.Name FROM Person X")
    assert report.outcomes["naive"].status == "skip"
    assert report.agreed


def test_reference_error_is_not_a_disagreement(oracle):
    # avg over an empty set raises QueryError in every engine alike;
    # the oracle records the reference failure and judges nothing.
    report = oracle.run(
        "SELECT X FROM Person X WHERE avg(X.Dependents.Salary) > 1"
    )
    if report.outcomes["reference"].status == "error":
        assert report.reference_failed
        assert report.agreed


def test_engine_subset(oracle):
    report = oracle.run(
        "SELECT X FROM Person X", engines=("reference", "kv")
    )
    assert set(report.outcomes) == {"reference", "kv"}
    assert report.agreed


def test_judge_flags_row_differences(oracle):
    report = OracleReport(text="synthetic")
    report.outcomes["reference"] = EngineOutcome(
        engine="reference", status="ok", rows=frozenset({("a",), ("b",)})
    )
    report.outcomes["flogic"] = EngineOutcome(
        engine="flogic", status="ok", rows=frozenset({("a",)})
    )
    oracle._judge(report)
    assert len(report.disagreements) == 1
    assert "missing 1" in report.disagreements[0]


def test_judge_flags_engine_error_when_reference_ok(oracle):
    report = OracleReport(text="synthetic")
    report.outcomes["reference"] = EngineOutcome(
        engine="reference", status="ok", rows=frozenset()
    )
    report.outcomes["naive"] = EngineOutcome(
        engine="naive", status="error", detail="QueryError: boom"
    )
    oracle._judge(report)
    assert len(report.disagreements) == 1
    assert "errored" in report.disagreements[0]


def test_judge_ignores_skips(oracle):
    report = OracleReport(text="synthetic")
    report.outcomes["reference"] = EngineOutcome(
        engine="reference", status="ok", rows=frozenset()
    )
    report.outcomes["flogic"] = EngineOutcome(
        engine="flogic", status="skip", detail="outside fragment"
    )
    oracle._judge(report)
    assert report.agreed


def test_kv_engine_runs_on_recovered_store(oracle):
    report = oracle.run(
        "SELECT X.Residence.City FROM Employee X WHERE X.Salary > 0"
    )
    assert report.outcomes["kv"].status == "ok"
    assert report.outcomes["kv"].rows == report.outcomes["reference"].rows
    # The kv scope's session runs over the recovered store, built once.
    kv_session = oracle.session_for("kv")
    assert kv_session.store is not oracle.store
    assert oracle.session_for("kv") is kv_session


def test_shape_engine_is_served_by_a_rebind(oracle):
    shape_session = oracle.session_for("shape")
    before = shape_session.metrics.counters.get("cache.rebind", 0)
    report = oracle.run(
        "SELECT X.Name FROM Employee X WHERE X.Salary > 25000 "
        "and X.Name != 'nobody'"
    )
    assert report.agreed, report.summary()
    assert report.outcomes["shape"].status == "ok"
    assert shape_session.metrics.counters["cache.rebind"] == before + 1


def test_shape_engine_fails_a_text_compiled_from_scratch(
    oracle, monkeypatch
):
    from repro.xsql.pipeline import QueryPipeline

    monkeypatch.setattr(
        QueryPipeline, "_rebindable", lambda self, cached, literals: False
    )
    report = oracle.run(
        "SELECT X FROM Employee X WHERE X.Salary > 31000",
        engines=("reference", "shape"),
    )
    assert report.outcomes["shape"].status == "error"
    assert "rebinding" in report.outcomes["shape"].detail
    assert not report.agreed


def test_shape_sibling_keeps_shape_and_equality_pattern():
    from repro.difftest.oracle import shape_sibling
    from repro.xsql.lexer import tokenize
    from repro.xsql.pipeline import statement_shape

    text = (
        "SELECT X FROM Person X WHERE X.Name['a'] and X.City['a'] "
        "and X.Age > 7001 and X.Height = 1.5 and X.Flag[true]"
    )
    sibling = shape_sibling(text)
    shape, literals = statement_shape(tokenize(text))
    sibling_shape, fresh = statement_shape(tokenize(sibling))
    assert sibling_shape == shape
    assert fresh[0] == fresh[1]
    assert all(new != old for old, new in zip(literals, fresh))
    assert "true" in sibling
