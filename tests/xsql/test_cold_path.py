"""Guard tests: a cold scan runs on the comparison kernel and chain fetch.

A comparison whose enumerated variables are all bound is one
``compare`` over two operand values (``CondOperator._grouped_eval``),
and an atom-chain operand or SELECT item is a frontier fetch
(``PathWalker.chain_value``).  With ``Evaluator.eval_cond`` and
``PathWalker.walk`` made to raise, the pinned-snapshot scan and a
prepared live run right after a write must still answer exactly what
``plan="none"`` answers.  A comparison with an unbound variable must
still go through ``eval_cond``.
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
