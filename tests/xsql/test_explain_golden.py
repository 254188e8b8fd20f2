"""Golden-file tests for ``CompiledQuery.explain`` across the §6.2 spectrum.

One golden file per typing discipline (strict, liberal-only, ill-typed,
outside-fragment) in both renderings (``.txt`` for ``format="text"``,
``.json`` for ``format="json"``), plus a ``plan="cost"`` golden showing
the join order / access-path section.  Regenerate after an intentional
format change with::

    REGEN_EXPLAIN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/xsql/test_explain_golden.py
"""

import json
import os
import re
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

STRICT_QUERY = (
    "SELECT X FROM Vehicle X "
    "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]"
)
ILL_TYPED_QUERY = "SELECT X FROM Person X WHERE X.Divisions[D]"
OUTSIDE_FRAGMENT_QUERY = "SELECT X WHERE X.A or X.B"
LIBERAL_ONLY_QUERY = "SELECT X WHERE X.WonNobelPrize"


def _check(name: str, actual: str, suffix: str = "txt") -> None:
    path = GOLDEN_DIR / f"explain_{name}.{suffix}"
    if os.environ.get("REGEN_EXPLAIN_GOLDENS"):
        path.write_text(actual + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), f"missing golden file {path}"
    assert actual + "\n" == path.read_text(), (
        f"explain output drifted from {path.name}; regenerate with "
        f"REGEN_EXPLAIN_GOLDENS=1 if the change is intentional"
    )


def test_strict_discipline_golden(shared_paper_session):
    compiled = shared_paper_session.prepare(STRICT_QUERY, plan="typed")
    _check("strict", compiled.explain())
    assert compiled.discipline == "strict"


def test_strict_discipline_json_golden(shared_paper_session):
    compiled = shared_paper_session.prepare(STRICT_QUERY, plan="typed")
    rendered = compiled.explain(format="json")
    json.loads(rendered)  # must be valid JSON regardless of golden state
    _check("strict", rendered, suffix="json")


def test_ill_typed_discipline_golden(shared_paper_session):
    compiled = shared_paper_session.prepare(ILL_TYPED_QUERY)
    _check("ill_typed", compiled.explain())
    assert compiled.discipline == "ill-typed"


def test_outside_fragment_discipline_golden(shared_paper_session):
    compiled = shared_paper_session.prepare(OUTSIDE_FRAGMENT_QUERY)
    _check("outside_fragment", compiled.explain())
    assert compiled.discipline == "outside-fragment"


def test_liberal_only_discipline_golden(nobel_session):
    compiled = nobel_session.prepare(LIBERAL_ONLY_QUERY)
    _check("liberal_only", compiled.explain())
    assert compiled.discipline == "liberal-only"


def test_cost_plan_golden(paper_session):
    # A fresh (non-shared) session: cost planning under index_mode="auto"
    # may enable indexes, and the golden pins est= and act= columns after
    # one execution.
    compiled = paper_session.prepare(STRICT_QUERY, plan="cost")
    compiled.run()
    _check("cost", compiled.explain())


def test_cost_plan_json_golden(paper_session):
    compiled = paper_session.prepare(STRICT_QUERY, plan="cost")
    compiled.run()
    rendered = compiled.explain(format="json")
    data = json.loads(rendered)
    entries = data["cost"]["entries"]
    assert all("actual_rows" in entry for entry in entries)
    _check("cost", rendered, suffix="json")


JOIN_QUERY = (
    "SELECT X, Y FROM Employee X, Employee Y "
    "WHERE X.Salary =some Y.Salary"
)


def test_hashjoin_plan_golden(paper_session):
    # An explicit join (example (13) shape): the cond entry must carry
    # the planner's join=hash annotation and the traced actual rows.
    compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
    compiled.run()
    _check("hashjoin", compiled.explain())


def test_hashjoin_plan_json_golden(paper_session):
    compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
    compiled.run()
    rendered = compiled.explain(format="json")
    data = json.loads(rendered)
    strategies = [
        entry.get("join_strategy")
        for entry in data["cost"]["entries"]
        if entry["kind"] == "cond"
    ]
    assert strategies == ["hash"]
    _check("hashjoin", rendered, suffix="json")


# EXPLAIN ANALYZE goldens: wall times vary run to run, so both renderings
# are normalized (time=...ms / "time_ms": ...) before comparison — and
# before regeneration, so the checked-in goldens are already normalized.
_TIME_TEXT = re.compile(r"time=\d+(?:\.\d+)?ms")
_TIME_JSON = re.compile(r'"time_ms": \d+(?:\.\d+)?')


def _normalize_times(rendered: str) -> str:
    rendered = _TIME_TEXT.sub("time=<t>ms", rendered)
    return _TIME_JSON.sub('"time_ms": 0', rendered)


def test_explain_analyze_golden(paper_session):
    # plan="cost" on a fresh session with the default join_mode="hash":
    # the operator tree carries a HashJoin with est= and act= columns.
    compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
    rendered = compiled.explain(analyze=True)
    assert "physical operators:" in rendered
    _check("analyze", _normalize_times(rendered))


def test_explain_analyze_json_golden(paper_session):
    compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
    rendered = compiled.explain(format="json", analyze=True)
    tree = json.loads(rendered)["operators"]
    assert tree["operator"] == "Project"
    join = tree["children"][0]
    assert join["operator"] == "HashJoin"
    # est-vs-actual is readable per operator straight from the JSON.
    assert join["estimated_rows"] == 32.0
    assert join["rows_out"] == 10
    _check("analyze", _normalize_times(rendered), suffix="json")


def _cache_hits(tree) -> int:
    return tree["cache_hits"] + sum(
        _cache_hits(child) for child in tree.get("children", ())
    )


def test_explain_analyze_is_repeatable(paper_session):
    # The cold run fills the session-persistent walker memo; every warm
    # run after it reports the same tree, cache hits included.
    compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
    cold = json.loads(compiled.explain(format="json", analyze=True))
    first = _normalize_times(compiled.explain(analyze=True))
    second = _normalize_times(compiled.explain(analyze=True))
    assert first == second
    warm = json.loads(compiled.explain(format="json", analyze=True))
    assert _cache_hits(cold["operators"]) == 0
    assert _cache_hits(warm["operators"]) > 0


def test_explain_analyze_rejects_ddl(paper_session):
    from repro.errors import QueryError

    compiled = paper_session.prepare("CREATE CLASS Spaceship")
    with pytest.raises(QueryError):
        compiled.explain(analyze=True)


def test_explain_rejects_unknown_format(shared_paper_session):
    from repro.errors import QueryError

    compiled = shared_paper_session.prepare(STRICT_QUERY)
    with pytest.raises(QueryError):
        compiled.explain(format="yaml")


def test_session_explain_matches_compiled_explain(shared_paper_session):
    # Session.explain is a convenience over prepare().explain().
    assert shared_paper_session.explain(
        STRICT_QUERY, plan="typed"
    ) == shared_paper_session.prepare(STRICT_QUERY, plan="typed").explain()


def test_explain_on_non_query_statement(paper_session):
    text = "CREATE CLASS Spaceship AS SUBCLASS OF Vehicle"
    assert paper_session.explain(text).startswith("statement:")
