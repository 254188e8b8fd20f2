"""ABLATE: decomposing the Theorem 6.1 speedup.

The optimizer has two independent levers — evaluating path expressions in
the coherent plan's order, and restricting each variable's instantiations
to the extent of its range.  Each is a lowering input of the operator
tree: the reordered statement, and ``LowerSpec(restrictions=...)`` with
the matching walker restrictions
(``repro.bench.report.ablation_variants``).  The ablation runs fragment
(17) in the unfavourable textual order under all four combinations.

Expected shape: plan reordering alone recovers most of the win here (it
removes the blind enumeration of M entirely); range restriction alone
also wins (blind enumeration still happens, but over extent(Company)
instead of every individual); together they compose.  Neither lever ever
changes the answers.
"""

import time

import pytest

from repro import Session
from repro.bench.report import FRAGMENT_17, ablation_variants
from repro.workloads.generator import WorkloadConfig, generate_database

VARIANTS = ("neither", "reorder-only", "restrict-only", "both")


@pytest.fixture(scope="module")
def store():
    return generate_database(WorkloadConfig(n_people=60, seed=17))


@pytest.fixture(scope="module")
def baseline_rows(store):
    return Session(store).query(FRAGMENT_17, plan="none").rows()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.benchmark(group="thm61-ablation")
def test_ablation_variant(benchmark, store, baseline_rows, variant):
    run = ablation_variants(store)[variant]
    result = benchmark(run)
    assert result.rows() == baseline_rows


def test_ablation_shape(store, baseline_rows):
    """Each lever is sound alone; 'both' is the fastest variant."""
    timings = {}
    for name, run in ablation_variants(store).items():
        start = time.perf_counter()
        result = run()
        timings[name] = time.perf_counter() - start
        assert result.rows() == baseline_rows, name
    assert timings["both"] <= timings["neither"]
    assert timings["reorder-only"] <= timings["neither"]
    assert timings["restrict-only"] <= timings["neither"]
