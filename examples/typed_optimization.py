"""Theorem 6.1 in action: typed, range-restricted evaluation.

Type-checks the §6.2 fragment (17) on a synthetic database, shows the
coherent (assignment, plan) pair the analysis finds, and times
``plan="typed"`` against ``plan="none"`` as the database grows.  The
typed plan "considers only those instantiations o of X such that
o ∈ A(X)" — the measured speedup is the paper's "potentially very
powerful optimization" made concrete.
"""

import time

from repro.typing import analyze
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql.session import Session

# Fragment (17) with its conjuncts in the unfavourable textual order: a
# naive left-to-right nested-loops evaluation hits M unbound and must try
# every individual in the database as a candidate manufacturer.  The
# typed plan finds the coherent plan (Manufacturer first), reorders,
# and restricts M to A(M) = {Object, Company} — i.e. to Company's extent.
QUERY = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)


def main() -> None:
    print(f"query: {QUERY}\n")
    for n_people in (50, 150, 400):
        store = generate_database(WorkloadConfig(n_people=n_people))
        report = analyze(QUERY, store)
        assert report.strict, "fragment (17) must be strictly well-typed"
        assignment, plan = report.strict_witness

        # One fresh session per plan, compiled off the clock.
        untyped_run = Session(store).prepare(QUERY, plan="none").run
        typed_run = Session(store).prepare(QUERY, plan="typed").run

        start = time.perf_counter()
        plain = untyped_run()
        plain_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        typed = typed_run()
        typed_ms = (time.perf_counter() - start) * 1000

        assert typed.rows() == plain.rows()
        speedup = plain_ms / typed_ms if typed_ms else float("inf")
        print(
            f"n_people={n_people:4d}  plan={plan}  "
            f"untyped={plain_ms:8.2f} ms  typed={typed_ms:8.2f} ms  "
            f"speedup={speedup:5.2f}x  answers={len(typed)}"
        )

    print("\nwitnessing assignment for the last run:")
    for occ, expr in assignment.entries:
        print(f"  {occ} : {expr}")


if __name__ == "__main__":
    main()
