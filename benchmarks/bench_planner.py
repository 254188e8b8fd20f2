"""PLANNER: greedy boundness ordering vs the typed Theorem 6.1 plan.

How much of the typed optimizer's win needs types?  Four plans on
fragment (17) in the unfavourable textual order:

* textual — ``plan="none"``, the left-to-right source order;
* greedy — ``plan="greedy"``, boundness reordering, no schema knowledge;
* typed — ``plan="typed"``, the Theorem 6.1 coherent plan + range
  restriction;
* greedy+index — boundness ordering plus a [BERT89] inverted index on
  Manufacturer.

Expected shape: greedy recovers the bulk of the win (the reorder), typed
adds range restriction on top, and all four agree on every answer.
"""

import pytest

from repro import Session
from repro.workloads.generator import WorkloadConfig, generate_database

FRAGMENT = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)
N_PEOPLE = 80


@pytest.fixture(scope="module")
def store():
    return generate_database(WorkloadConfig(n_people=N_PEOPLE, seed=29))


@pytest.fixture(scope="module")
def expected_rows(store):
    return Session(store).query(FRAGMENT, plan="none").rows()


def _bench_plan(benchmark, store, plan, expected_rows):
    compiled = Session(store).prepare(FRAGMENT, plan=plan)
    result = benchmark(compiled.run)
    assert result.rows() == expected_rows


@pytest.mark.benchmark(group="planner-compare")
def test_textual_order(benchmark, store, expected_rows):
    _bench_plan(benchmark, store, "none", expected_rows)


@pytest.mark.benchmark(group="planner-compare")
def test_greedy_order(benchmark, store, expected_rows):
    _bench_plan(benchmark, store, "greedy", expected_rows)


@pytest.mark.benchmark(group="planner-compare")
def test_typed_plan(benchmark, store, expected_rows):
    _bench_plan(benchmark, store, "typed", expected_rows)


@pytest.mark.benchmark(group="planner-compare")
def test_greedy_with_index(benchmark, expected_rows):
    indexed_store = generate_database(
        WorkloadConfig(n_people=N_PEOPLE, seed=29)
    )
    indexed_store.enable_index("Manufacturer")
    indexed_store.enable_index("OwnedVehicles")
    _bench_plan(benchmark, indexed_store, "greedy", expected_rows)
