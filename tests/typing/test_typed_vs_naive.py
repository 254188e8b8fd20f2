"""Differential test: the Theorem 6.1 typed plan vs the §3.4 oracle.

Closes the loop between the paper's two semantics-bearing artifacts: the
literal substitution semantics (§3.4) and the typed, range-restricted
evaluation (Theorem 6.1).  For strictly well-typed queries they must
coincide on every database.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.typing import analyze
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql.session import Session

# The NaiveEvaluator enumerates the full substitution space, so this
# differential suite takes minutes; the seeded fuzzer (repro.difftest)
# covers the same engine pair on every `make test` run.
pytestmark = pytest.mark.slow

QUERIES = [
    "SELECT X FROM Employee X WHERE X.Salary[W] and W > 100000",
    "SELECT X FROM Person X WHERE X.Residence[R] and R.City[C]",
    "SELECT M FROM Vehicle X WHERE X.Manufacturer[M]",
    "SELECT X FROM Vehicle X WHERE M.President.OwnedVehicles[X] "
    "and X.Manufacturer[M]",
]


@pytest.mark.parametrize("text", QUERIES)
@given(seed=st.integers(0, 3000))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_typed_equals_naive_oracle(text, seed):
    store = generate_database(WorkloadConfig(n_people=8, seed=seed))
    report = analyze(text, store)
    if not report.strict:
        return  # the discipline depends only on schema; skip defensively
    session = Session(store)
    typed = session.query(text, plan="typed")
    naive = session.query(text, engine="naive")
    assert typed.rows() == naive.rows(), text
