"""Guard tests: a cold scan runs on step programs.

A comparison whose enumerated variables are all bound runs on its
step program (``programs.ComparisonProgram``, from
``CondOperator._grouped_eval``), and an atom-chain operand or SELECT
item is a fold of per-method cell readers (``programs.ChainProgram``).
With ``Evaluator.eval_cond`` and ``PathWalker.walk`` made to raise, the
pinned-snapshot scan and a prepared live run right after a write must
still answer exactly what ``plan="none"`` answers — multi-hop chains,
``all`` quantifiers and a constant on the left included.  A comparison
with an unbound variable must still go through ``eval_cond``.
"""

import pytest

from repro.xsql.evaluator import Evaluator
from repro.xsql.paths import PathWalker

SCAN = "SELECT X.Name, X.Salary FROM Employee X WHERE X.Salary > 25000"


def rows(result):
    return sorted(tuple(str(v) for v in row) for row in result.rows())


def forbid(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("cold scan left the kernel")

    monkeypatch.setattr(Evaluator, "eval_cond", boom)
    monkeypatch.setattr(PathWalker, "walk", boom)


def test_snapshot_scan_skips_eval_cond_and_walk(paper_session, monkeypatch):
    with paper_session.snapshot_view() as snap:
        forbid(monkeypatch)
        cold = rows(snap.query(SCAN, plan="cost"))
        # the warm rerun answers from the memo, still identically
        warm = rows(snap.query(SCAN, plan="cost"))
        monkeypatch.undo()
        expected = rows(snap.query(SCAN, plan="none"))
    assert len(expected) == 6
    assert cold == warm == expected


def test_live_run_after_write_skips_eval_cond_and_walk(
    paper_session, monkeypatch
):
    compiled = paper_session.prepare(SCAN, plan="cost")
    compiled.run()
    paper_session.execute("UPDATE CLASS Employee SET ben.Salary = 1")
    forbid(monkeypatch)
    cold = rows(compiled.run())
    monkeypatch.undo()
    expected = rows(paper_session.query(SCAN, plan="none"))
    assert len(expected) == 5
    assert cold == expected


#: Multi-hop chains, ``all`` on either side, the constant on the left,
#: and (with the count of rows ``plan="none"`` answers) vacuous truth.
SCANS = {
    "SELECT X.Name, X.Residence.City FROM Employee X "
    "WHERE X.Salary > 25000": 6,
    "SELECT X.Name FROM Person X WHERE X.FamMembers.Age all> 10": 17,
    "SELECT X.Name FROM Person X WHERE 30 <all X.FamMembers.Age": 16,
    "SELECT X.Name FROM Person X "
    "WHERE X.FamMembers.Residence.City some= 'austin'": 2,
    "SELECT X.Name FROM Person X "
    "WHERE X.FamMembers.Residence.City all= 'newyork'": 17,
}


@pytest.mark.parametrize("text", sorted(SCANS))
def test_snapshot_scans_of_every_shape_skip_eval_cond_and_walk(
    paper_session, monkeypatch, text
):
    with paper_session.snapshot_view() as snap:
        forbid(monkeypatch)
        cold = rows(snap.query(text, plan="cost"))
        warm = rows(snap.query(text, plan="cost"))
        monkeypatch.undo()
        expected = rows(snap.query(text, plan="none"))
    assert len(expected) == SCANS[text]
    assert cold == warm == expected


@pytest.mark.parametrize("text", sorted(SCANS))
def test_live_runs_of_every_shape_after_a_write_skip_eval_cond_and_walk(
    paper_session, monkeypatch, text
):
    compiled = paper_session.prepare(text, plan="cost")
    compiled.run()
    paper_session.execute("UPDATE CLASS Person SET anna.Age = 5")
    forbid(monkeypatch)
    cold = rows(compiled.run())
    monkeypatch.undo()
    assert cold == rows(paper_session.query(text, plan="none"))


@pytest.mark.parametrize(
    "text",
    [
        "SELECT X FROM Employee X WHERE X.Salary < Y.Age",
        "SELECT X FROM Employee X WHERE X.FamMembers.Age some> Y",
    ],
)
def test_unbound_variable_still_reaches_eval_cond(
    paper_session, monkeypatch, text
):
    calls = []
    original = Evaluator.eval_cond

    def counting(self, cond, env):
        calls.append(cond)
        return original(self, cond, env)

    monkeypatch.setattr(Evaluator, "eval_cond", counting)
    answer = rows(paper_session.query(text, plan="cost"))
    assert calls
    monkeypatch.undo()
    assert answer == rows(paper_session.query(text, plan="none"))
