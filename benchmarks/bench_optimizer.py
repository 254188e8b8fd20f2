"""THM61: the Theorem 6.1 optimization, measured.

"In the evaluation of Q ... it suffices to consider only those
instantiations o of X such that o ∈ A(X)" — the paper calls this
"potentially very powerful".  The bench runs fragment (17) with its
conjuncts in the unfavourable textual order (the naive nested-loops
evaluation must try every individual as a candidate manufacturer) and
compares the untyped evaluator against the typed one across database
sizes, both as plans of one session (``plan="none"`` vs
``plan="typed"``).  The expected *shape*: the typed evaluator wins by a factor that
grows with the database, because the untyped cost scales with the whole
individual universe while the typed cost scales with extent(Company).
"""

import time

import pytest

from repro import Session
from repro.typing import analyze
from repro.workloads.generator import WorkloadConfig, generate_database

FRAGMENT = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)

SIZES = [30, 60, 120]


def _store(n_people):
    return generate_database(WorkloadConfig(n_people=n_people, seed=11))


@pytest.mark.parametrize("n_people", SIZES)
@pytest.mark.benchmark(group="thm61-untyped")
def test_untyped_evaluation(benchmark, n_people):
    compiled = Session(_store(n_people)).prepare(FRAGMENT, plan="none")
    result = benchmark(compiled.run)
    assert result is not None


@pytest.mark.parametrize("n_people", SIZES)
@pytest.mark.benchmark(group="thm61-typed")
def test_typed_evaluation(benchmark, n_people):
    session = Session(_store(n_people))
    # Compiling amortizes type analysis across repeated runs.
    compiled = session.prepare(FRAGMENT, plan="typed")
    assert compiled.report.strict
    typed_result = benchmark(compiled.run)
    # soundness: same answers as the untyped plan.
    assert typed_result.rows() == session.query(FRAGMENT, plan="none").rows()


@pytest.mark.benchmark(group="thm61-analysis")
def test_type_analysis_cost(benchmark, paper):
    """The one-off cost of finding the coherent (A, P) pair."""
    report = benchmark(lambda: analyze(FRAGMENT, paper.store))
    assert report.strict


def test_speedup_shape():
    """The headline claim: the typed/untyped ratio grows with DB size."""
    ratios = []
    for n_people in SIZES:
        store = _store(n_people)
        timed = {}
        for plan in ("none", "typed"):
            # A fresh session per plan: no walker cache is warm.
            compiled = Session(store).prepare(FRAGMENT, plan=plan)
            start = time.perf_counter()
            timed[plan] = (compiled.run(), time.perf_counter() - start)
        (plain, untyped_s), (typed, typed_s) = timed["none"], timed["typed"]
        assert typed.rows() == plain.rows()
        ratios.append(untyped_s / max(typed_s, 1e-9))
    # who wins: typed, at every size; by what factor: growing.
    assert all(r > 1 for r in ratios), ratios
    assert ratios[-1] > ratios[0], ratios
