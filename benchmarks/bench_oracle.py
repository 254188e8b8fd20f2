"""ORACLE: the literal §3.4 semantics vs the binding-stream engine.

The paper defines query meaning by enumerating *every* sort-respecting
substitution (§3.4) and immediately remarks that "quite often queries are
evaluated by nested loops" — the practical engine.  This bench quantifies
the gap on the same query as the database grows: the naive oracle's cost
is the product of the variable universes; the binding-stream engine walks
paths and only enumerates what nothing binds.

Expected shape: identical answers; naive cost explodes multiplicatively
with each variable, the stream engine stays near-linear.
"""

import pytest

from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql.evaluator import Evaluator, NaiveEvaluator
from repro.xsql.parser import parse_query

QUERY = "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"
SIZES = [10, 20]


def _store(n_people):
    return generate_database(WorkloadConfig(n_people=n_people, seed=13))


@pytest.mark.parametrize("n_people", SIZES)
@pytest.mark.benchmark(group="oracle-naive")
def test_naive_oracle(benchmark, n_people):
    store = _store(n_people)
    query = parse_query(QUERY)
    evaluator = NaiveEvaluator(store)
    result = benchmark(lambda: evaluator.run(query))
    assert result.rows() == Evaluator(store).run(query).rows()


@pytest.mark.parametrize("n_people", SIZES)
@pytest.mark.benchmark(group="oracle-stream")
def test_binding_stream(benchmark, n_people):
    store = _store(n_people)
    query = parse_query(QUERY)
    evaluator = Evaluator(store)
    result = benchmark(lambda: evaluator.run(query))
    assert len(result) >= 0


#: The gap test's repetitions: each one times both sizes back to back,
#: and each size's gap is the median over the repetitions.
GAP_REPEATS = 7


def _best_of(runs, evaluate):
    """Fastest of *runs* timings, so one GC pause cannot flip a ratio."""
    import time

    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = evaluate()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_gap_shape():
    """The naive/stream gap widens with the database.

    One repetition alternates the two sizes, so a slow stretch of the
    host slows both gaps of that repetition; the gate compares each
    size's median gap over :data:`GAP_REPEATS` repetitions.  The naive
    run takes hundreds of milliseconds and varies little; the stream
    run takes under one, so it is the fastest of five.
    """
    import statistics

    query = parse_query(QUERY)
    stores = [_store(n_people) for n_people in SIZES]
    samples = [[] for _ in SIZES]
    for _ in range(GAP_REPEATS):
        for store, gaps in zip(stores, samples):
            naive_s, naive = _best_of(
                1, lambda: NaiveEvaluator(store).run(query)
            )
            stream_s, stream = _best_of(
                5, lambda: Evaluator(store).run(query)
            )
            assert naive.rows() == stream.rows()
            gaps.append(naive_s / max(stream_s, 1e-9))
    gaps = [statistics.median(size_gaps) for size_gaps in samples]
    assert all(g > 1 for g in gaps)
    assert gaps[-1] > gaps[0], samples
