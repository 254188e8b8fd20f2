"""Evaluation machinery tour: explain, planners, and indexes.

Shows the three levers the library offers over the naive nested-loops
evaluation the paper describes (§6.2's execution plans being the typed
one):

1. ``session.explain`` — where a query sits on the typing spectrum, the
   coherent plan, and the instantiation sets Theorem 6.1 licenses;
2. the greedy (untyped) boundness planner vs the typed plan;
3. [BERT89]-style inverted attribute indexes for reverse lookups.
"""

import time

from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql.session import Session

FRAGMENT = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)


def timed(label: str, store, text: str, plan: str = "none"):
    """Run *text* once on a fresh session, compiled off the clock."""
    run = Session(store).prepare(text, plan=plan).run
    start = time.perf_counter()
    result = run()
    print(f"  {label:<22} {1000 * (time.perf_counter() - start):8.2f} ms")
    return result


def main() -> None:
    store = generate_database(WorkloadConfig(n_people=120, seed=29))
    session = Session(store)

    print("=== 1. explain")
    print(session.explain(FRAGMENT))

    print("\n=== 2. evaluation strategies on the same query")
    baseline = timed("textual order", store, FRAGMENT)
    greedy = timed("greedy planner", store, FRAGMENT, plan="greedy")
    typed = timed("typed plan (Thm 6.1)", store, FRAGMENT, plan="typed")
    assert greedy.rows() == baseline.rows() == typed.rows()
    print(f"  answers agree across all strategies ({len(typed)} rows)")

    print("\n=== 3. inverted indexes for reverse lookups")
    address = sorted(store.extent("Address"), key=str)[0]
    reverse = f"SELECT X WHERE X.Residence[{address}]"
    scan = timed("scan", store, reverse)
    store.enable_index("Residence")
    indexed = timed("indexed", store, reverse)
    assert indexed.rows() == scan.rows()
    print(
        f"  index answered {store.index_stats()['hits']} lookup(s); "
        f"answers agree ({len(indexed)} rows)"
    )


if __name__ == "__main__":
    main()
