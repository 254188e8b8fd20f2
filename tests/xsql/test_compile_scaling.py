"""Compiling a query touches no store-sized collection.

§6's type assignment, coherent plan and Theorem 6.1 range restrictions
depend only on the schema, and the cost model reads the statistics
catalogue plus O(classes) schema counts.  So compiling must never
enumerate the store: every enumerator below is made to raise, and
``prepare`` under ``plan="cost"`` and the advisory cost plan behind
``access_paths`` (under ``plan="greedy"``) must still succeed.
"""

import pytest

from repro import Session
from repro.datamodel.store import ObjectStore
from repro.workloads.scale import ScaleSpec, generate_scaled

STORE_SIZED = (
    "individual_universe",
    "known_objects",
    "extent",
    "method_universe",
)

QUERIES = {
    "point-lookup": "SELECT X FROM Person X WHERE X.Name['P12']",
    "one-hop": "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
    "method-variable": "SELECT Y FROM Person X WHERE X.\"Y['P12']",
}


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(generate_scaled(ScaleSpec(n_objects=2_000)))


@pytest.fixture
def no_store_scans(monkeypatch):
    def forbidden(name):
        def scan(self, *args, **kwargs):
            raise AssertionError(f"compile called ObjectStore.{name}")

        return scan

    for name in STORE_SIZED:
        monkeypatch.setattr(ObjectStore, name, forbidden(name))


@pytest.mark.parametrize("text", QUERIES.values(), ids=QUERIES.keys())
def test_cost_plan_compile_never_scans_the_store(
    session, no_store_scans, text
):
    session.pipeline.clear()
    compiled = session.prepare(text, plan="cost")
    assert compiled.cost_plan is not None


@pytest.mark.parametrize("text", QUERIES.values(), ids=QUERIES.keys())
def test_advisory_cost_plan_never_scans_the_store(
    session, no_store_scans, text
):
    session.pipeline.clear()
    compiled = session.prepare(text, plan="greedy")
    assert compiled.access_paths()
