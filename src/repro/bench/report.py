"""Regenerate the EXPERIMENTS.md measurements.

Each ``experiment_*`` function returns a list of report lines; the module
is runnable::

    python -m repro.bench.report

Timings here use single-shot ``perf_counter`` measurements (the pytest
benches do the statistically careful version); they exist so the recorded
paper-vs-measured table can be reproduced with one command.  Every query
is prepared on a fresh :class:`~repro.Session` and timed over one run of
the operator tree, so compilation stays off the clock and no walker
cache is warm.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro import Session
from repro.datamodel.store import ObjectStore
from repro.relational import mirror_figure1, project
from repro.schema.figure1 import build_figure1_schema
from repro.schema.nobel import build_nobel_schema, populate_nobel_database
from repro.schema.typing_examples import (
    extend_with_typing_classes,
    populate_oo_forum,
)
from repro.typing import (
    Exemptions,
    analyze,
    extent_restrictions,
    range_classes,
    reorder,
)
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.workloads.paper_db import populate_paper_database
from repro.xsql import operators
from repro.xsql.parser import parse_query
from repro.xsql.result import QueryResult

__all__ = ["run_all_experiments"]


def _paper_session() -> Session:
    session = Session()
    build_figure1_schema(session.store)
    populate_paper_database(session.store)
    return session


def _timed(fn: Callable[[], object]) -> tuple:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _cold_run(store: ObjectStore, text: str, plan: str = "none") -> tuple:
    """(result, seconds) of one run of *text* prepared on a fresh session."""
    return _timed(Session(store).prepare(text, plan=plan).run)


#: Fragment (17) in the unfavourable textual order.
FRAGMENT_17 = (
    "SELECT X FROM Vehicle X "
    "WHERE M.President.OwnedVehicles[X] and X.Manufacturer[M]"
)


def ablation_variants(
    store: ObjectStore,
) -> Dict[str, Callable[[], QueryResult]]:
    """Fragment (17) under the two Theorem 6.1 levers, alone and together.

    Each lever is a lowering input of the operator tree: ``reorder``
    supplies the statement the tree is lowered from and
    ``extent_restrictions`` the scan restrictions; every call runs on a
    fresh session, so no walker cache is warm.
    """
    query = parse_query(FRAGMENT_17)
    report = analyze(query, store)
    assert report.strict_witness is not None and report.typed_query
    assignment, plan = report.strict_witness
    restrictions = extent_restrictions(
        store, range_classes(store, assignment, report.typed_query), query
    )
    reordered = reorder(query, report.typed_query, plan)

    def variant(statement, restricted):
        allowed = restrictions if restricted else {}
        root = operators.lower_statement(
            statement, operators.LowerSpec(restrictions=allowed)
        )
        return lambda: operators.execute(
            root, Session(store).evaluator(allowed or None)
        )

    return {
        "neither": variant(query, False),
        "restrict-only": variant(query, True),
        "reorder-only": variant(reordered, False),
        "both": variant(reordered, True),
    }


def experiment_paper_answers() -> List[str]:
    """Q1–Q17: the worked examples and their reproduced answers."""
    session = _paper_session()
    lines = ["## Worked examples (answers)"]
    checks = [
        ("Q1 (1) mary123.Residence.City", "SELECT mary123.Residence.City",
         ["newyork"]),
        ("Q2 president's family names",
         "SELECT uniSQL.President.FamMembers.Name", ["Lee", "Sue"]),
        ("Q6 (4) TurboEngine subclassOf #X",
         "SELECT #X WHERE TurboEngine subclassOf #X",
         ["FourStrokeEngine", "Object", "PistonEngine"]),
        ("Q7 family member over 20",
         "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
         ["john13", "kim"]),
        ("Q10 aggregate family query",
         "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 and "
         "X.Residence =all X.FamMembers.Residence and X.Salary < 35000",
         ["ben"]),
    ]
    for label, text, expected in checks:
        result = sorted(str(v) for v in session.query(text).single_column())
        cleaned = [value.strip("'") for value in result]
        status = "ok" if cleaned == expected or result == expected else "MISMATCH"
        lines.append(f"- {label}: {cleaned} [{status}]")
    return lines


def experiment_thm61() -> List[str]:
    """THM61: typed vs untyped evaluation across database sizes."""
    lines = [
        "## THM61 — Theorem 6.1 range-restricted evaluation",
        "| n_people | untyped (ms) | typed (ms) | speedup |",
        "|---------:|-------------:|-----------:|--------:|",
    ]
    for n_people in (50, 150, 400):
        store = generate_database(WorkloadConfig(n_people=n_people))
        plain, untyped_s = _cold_run(store, FRAGMENT_17)
        typed, typed_s = _cold_run(store, FRAGMENT_17, plan="typed")
        assert typed.rows() == plain.rows()
        lines.append(
            f"| {n_people} | {untyped_s * 1000:.1f} | {typed_s * 1000:.1f} "
            f"| {untyped_s / max(typed_s, 1e-9):.1f}x |"
        )
    return lines


def experiment_typing_spectrum() -> List[str]:
    """T17/T19/NOBEL: the §6.2 analyses."""
    lines = ["## Typing spectrum"]
    session = _paper_session()
    extend_with_typing_classes(session.store)
    populate_oo_forum(session.store)
    report17 = analyze(
        "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] "
        "and M.President.OwnedVehicles[X]",
        session.store,
    )
    plan17 = report17.strict_witness[1] if report17.strict_witness else None
    lines.append(
        f"- fragment (17): {report17.discipline()} via plan {plan17}"
    )
    report19 = analyze(
        "SELECT X FROM Numeral Year WHERE X.Manufacturer[M] and "
        "M.President.OwnedVehicles[X] and OO_Forum.(Member @ Year)[M]",
        session.store,
    )
    plan19 = report19.strict_witness[1] if report19.strict_witness else None
    lines.append(
        f"- fragment (19): {report19.discipline()} via plan {plan19}"
    )
    nobel = Session()
    build_nobel_schema(nobel.store)
    populate_nobel_database(nobel.store)
    nobel_query = "SELECT X WHERE X.WonNobelPrize"
    lines.append(
        f"- Nobel query: {analyze(nobel_query, nobel.store).discipline()}"
        f" / with 0-th arg exempt: "
        f"{analyze(nobel_query, nobel.store, Exemptions.for_method('WonNobelPrize', 0)).discipline()}"
    )
    return lines


def experiment_thm31() -> List[str]:
    """THM31: translation equivalence over the conjunctive corpus."""
    from repro.flogic import FlogicDatabase, evaluate, translate

    session = _paper_session()
    db = FlogicDatabase.from_store(session.store)
    corpus = [
        "SELECT mary123.Residence.City",
        "SELECT uniSQL.President.FamMembers.Name",
        "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
        "SELECT Z FROM Employee X, Automobile Y "
        "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
        "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
        "SELECT Y FROM Person X WHERE X.Y.City['newyork']",
    ]
    agree = 0
    for text in corpus:
        query = parse_query(text)
        if evaluate(db, translate(query)) == session.query(text).rows():
            agree += 1
    return [
        "## THM31 — Theorem 3.1 translation",
        f"- {agree}/{len(corpus)} corpus queries: F-logic answers ≡ native "
        f"answers",
    ]


def experiment_engt() -> List[str]:
    """ENGT: the §1 engine-types contrast."""
    store = generate_database(WorkloadConfig(n_people=80, seed=3))
    session = Session(store)
    mirror = mirror_figure1(store)
    _, rel_s = _timed(
        lambda: project(mirror.table("vehicles"), ["engine_type"])
    )
    _, schema_s = _timed(
        lambda: session.query("SELECT #X WHERE #X subclassOf PistonEngine")
    )
    # Bind Z by walking from vehicles, then classify: the `FROM #E Z`
    # formulation forces the nested-loops evaluator to enumerate every
    # class extent first — the clause-order sensitivity §6.2's execution
    # plans are about.
    _, installed_s = _timed(
        lambda: session.query(
            "SELECT #E FROM Vehicle X WHERE X.Drivetrain.Engine[Z] "
            "and Z instanceOf #E and #E subclassOf PistonEngine"
        )
    )
    return [
        "## ENGT — engine types: relational vs schema query",
        f"- relational projection: {rel_s * 1000:.2f} ms",
        f"- XSQL schema-only query: {schema_s * 1000:.2f} ms",
        f"- XSQL installed-types query: {installed_s * 1000:.2f} ms",
    ]


def experiment_pvsq() -> List[str]:
    """PVSQ: single-sweep path vs fragmented vs subquery."""
    store = generate_database(WorkloadConfig(n_people=60, seed=23))
    rows = []
    answers = {}
    for name, text in (
        ("single-sweep", "SELECT Z FROM Employee X "
         "WHERE X.OwnedVehicles.Drivetrain.Engine[Z]"),
        ("fragmented", "SELECT Z FROM Employee X WHERE X.OwnedVehicles[V] "
         "and V.Drivetrain[D] and D.Engine[Z]"),
        ("subquery", "SELECT Z FROM Employee X WHERE Z =some "
         "(SELECT E FROM VehicleDrivetrain D "
         "WHERE X.OwnedVehicles.Drivetrain[D].Engine[E])"),
    ):
        result, seconds = _cold_run(store, text)
        answers[name] = result.rows()
        rows.append(f"- {name}: {seconds * 1000:.2f} ms")
    assert len(set(map(frozenset, answers.values()))) == 1
    return ["## PVSQ — one path expression vs fragmented forms"] + rows


def experiment_ablation() -> List[str]:
    """ABLATE: decomposing the Theorem 6.1 speedup into its two levers."""
    store = generate_database(WorkloadConfig(n_people=60, seed=17))
    lines = ["## ABLATE — Theorem 6.1 decomposition (n_people=60)"]
    for name, run in ablation_variants(store).items():
        _result, seconds = _timed(run)
        lines.append(f"- {name}: {seconds * 1000:.2f} ms")
    return lines


def experiment_index() -> List[str]:
    """INDEX: reverse lookups via the [BERT89]-style inverted index."""
    lines = ["## INDEX — inverted attribute index vs scan"]
    for n_people in (100, 300):
        store = generate_database(WorkloadConfig(n_people=n_people, seed=3))
        address = sorted(store.extent("Address"), key=str)[0]
        text = f"SELECT X WHERE X.Residence[{address}]"
        scan, scan_s = _cold_run(store, text)
        store.enable_index("Residence")
        indexed, indexed_s = _cold_run(store, text)
        assert indexed.rows() == scan.rows()
        lines.append(
            f"- n_people={n_people}: scan {scan_s * 1000:.2f} ms, indexed "
            f"{indexed_s * 1000:.2f} ms "
            f"({scan_s / max(indexed_s, 1e-9):.1f}x)"
        )
    return lines


def experiment_planner() -> List[str]:
    """PLANNER: greedy boundness order vs typed plan vs textual order."""
    store = generate_database(WorkloadConfig(n_people=80, seed=29))
    lines = ["## PLANNER — who needs types? (n_people=80)"]
    rows = set()
    for label, plan in (
        ("textual order", "none"),
        ("greedy planner", "greedy"),
        ("typed plan (Thm 6.1)", "typed"),
    ):
        result, seconds = _cold_run(store, FRAGMENT_17, plan=plan)
        rows.add(result.rows())
        lines.append(f"- {label}: {seconds * 1000:.2f} ms")
    assert len(rows) == 1
    return lines


def run_all_experiments() -> str:
    sections = [
        experiment_paper_answers(),
        experiment_thm31(),
        experiment_typing_spectrum(),
        experiment_thm61(),
        experiment_ablation(),
        experiment_planner(),
        experiment_index(),
        experiment_engt(),
        experiment_pvsq(),
    ]
    return "\n".join(line for section in sections for line in section)


if __name__ == "__main__":
    print(run_all_experiments())
