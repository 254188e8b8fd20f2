"""Pipeline benchmarks: the statement cache, and the cost-based planner.

**Cache benchmark** — cold vs. cached execution of the paper's queries
(1)–(13): *cold* runs clear the cache first and pay ``parse → normalize
→ analyze → plan → execute`` in full; *cached* runs re-execute a
prepared :class:`~repro.xsql.pipeline.CompiledQuery`, paying only the
execute stage (plus, under ``plan="typed"``, the data-dependent Theorem
6.1 extent-restriction rebuild).  The headline number is the best
per-query speedup: for compile-heavy queries (a short path expression
like Q1, or a join whose coherent-pair search dominates like Q12) cached
re-execution must be at least 3× faster than cold.  Execution-bound
queries (Q9's quantified double loop) sit near 1× by construction — the
cache does not speed up evaluation, only compilation — so the per-query
table is the trajectory to watch.

**Selective-predicate benchmark** — ``plan="cost"`` (auto-enabled index
probes) vs. ``plan="greedy"`` (extent scans) on a 400-person synthetic
workload whose ``Name`` values are unique: a point predicate like
``X.Name['P123']`` must run at least 5× faster once the cost planner
restricts the FROM enumeration to the index probe's owners.

**Join benchmark** — ``join_mode="hash"`` vs ``join_mode="nested"``
on prepared ``plan="cost"`` re-runs of J1–J3: hash joins must beat
nested loops on every query, and each query's hash p50 must stay within
2× of the checked-in baseline artifact (``--baseline``; by default
``benchmarks/BENCH_pipeline.json``).

**Shape benchmark** — for every paper query with literals, three
``prepare`` timings: *cold* (empty statement cache: parse → normalize →
analyze → plan), *exact hit* (the same text again: one lex and a
lookup), and *shape hit* (a text that differs only in literals, served
by rebinding them into the cached compilation: one lex, a lookup and
the plan stage).  On every such query a shape-hit prepare must take at
most 0.5× the cold prepare.

**Pointer-join benchmark** — ``pointer_join="force"`` vs
``pointer_join="off"`` on prepared ``plan="cost"`` re-runs: V1 binds a
fan-out conjunct (``D.Manager =some Y``) by dereferencing the stored
cell instead of scanning the 600-employee extent and hashing it; V2
is a star with two navigation edges hanging off one selective
dimension.  The pointer side must beat the hash side on every query,
and each query's pointer p50 must stay within 2× of the checked-in
baseline artifact.

**Cold-path benchmark** — the ``oltp`` snapshot scan
``SELECT X.Name, X.Salary FROM Employee X WHERE X.Salary > 300000`` on
a 2,000-person store with a cold walker memo: C1 is the p50 of the
first scan on a freshly pinned ``SnapshotSession``, C2 the p50 of a
prepared live run right after a point write.  Both run on step
programs (``repro.xsql.programs``: a bound comparator and per-method
cell readers); each p50 must stay within 2× of the checked-in baseline
artifact.

**Term benchmark** — the id-term operations every operator memo,
batch column, extent set and binding dict repeats: T1 is 10,000
operator-memo-style lookups on ``(int, Atom, Value)`` keys, T2 builds a
frozenset of 10,000 ``Value`` oids, T3 is 10,000 binding-dict lookups
keyed by ``Variable``.  The lookup keys are equal to, not identical
with, the stored ones, so every hit also compares terms.  Each p50 must
stay within 2× of the checked-in baseline artifact.

**Compile-scaling benchmark** — the p50 of a cold
``prepare(..., plan="cost")`` (statement cache cleared first) over 200
distinct point-lookup texts on
scaled stores of 2k and 20k objects.  Planning reads only the
statistics catalogue and O(classes) schema counts, so the 20k p50 must
stay within 2× of the 2k p50.

**Maintenance-scaling benchmark** — on the same two store sizes, with
the ``Name`` index enabled, the p50 of ``extent`` on a fixed 10-object
class and the p50 of ``purge_object`` of one indexed person.  Neither
walks the store (only ``Object`` and the literal classes enumerate the
active domain; a purge drops just the purged object's index entries),
so each 20k p50 must stay within 2× of its 2k p50.

**View-maintenance benchmark** — V3: after ``k`` point salary writes,
re-reading a materialized view through its id-term (which triggers the
lazy *targeted* sync — only the affected groups re-derive) must be 5×
faster than a full ``refresh`` recompute of the same view.

**Host speed** — beside every timed group the run records the loop
time of perfbench's ``SpeedProbe`` (``perfbench/measure.py``): the
median of the reference loops sampled right before and right after
the group.  The baseline gates (J, V, C, T) compare *probe-scaled*
p50s — each p50 scaled to a host where that loop takes
``SpeedProbe.NOMINAL_S`` — so a host that runs the same code slower or
faster than the one the artifact was made on moves neither side.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--rounds N]
        [--plan none|greedy|typed|cost] [--json PATH] [--baseline PATH]

or through pytest (asserts the ratio criteria; the join baseline gate
is CLI-only, the pointer, cold and term ones run in both)::

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import Session
from repro.difftest.oracle import shape_sibling
from repro.oid import Atom, Value, Variable
from repro.schema.figure1 import build_figure1_schema
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.workloads.paper_db import populate_paper_database
from repro.workloads.scale import ScaleSpec, generate_scaled
from repro.xsql.lexer import tokenize
from repro.xsql.pipeline import statement_shape


def _load_speed_probe():
    """perfbench's ``SpeedProbe``, loaded from its file: ``perfbench/``
    is a directory of scripts, not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "measure.py"
    spec = importlib.util.spec_from_file_location("perfbench_measure", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module.SpeedProbe


SpeedProbe = _load_speed_probe()

#: The paper's numbered examples Q1–Q12 (read-only; Q13 is measured
#: separately because object creation mutates the store).
PAPER_QUERIES: List[Tuple[str, str]] = [
    ("Q1", "SELECT mary123.Residence.City"),
    ("Q2", "SELECT uniSQL.President.FamMembers.Name"),
    ("Q3", "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"),
    (
        "Q4",
        "SELECT Z FROM Employee X, Automobile Y "
        "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
    ),
    ("Q5", "SELECT Y FROM Person X WHERE X.Y.City['newyork']"),
    ("Q6", "SELECT #X WHERE TurboEngine subclassOf #X"),
    ("Q7", "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"),
    (
        "Q8",
        "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
        "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
        "and X.President.Age < 30",
    ),
    (
        "Q9",
        "SELECT Y, X FROM Employee Y, Employee X "
        "WHERE count(Y.FamMembers) > 0 and count(X.FamMembers) > 0 "
        "and Y.FamMembers.Age all<all X.FamMembers.Age",
    ),
    (
        "Q10",
        "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
        "and X.Residence =all X.FamMembers.Residence "
        "and X.Salary < 35000",
    ),
    (
        "Q11",
        "SELECT X.Name, W.Salary FROM Company X "
        "WHERE X.Divisions.Employees[W]",
    ),
    (
        "Q12",
        "SELECT X, Y FROM Company X "
        "WHERE X.Name =some X.Divisions.Employees[Y].Name",
    ),
]

Q13_CREATION = (
    "SELECT EmpSalary = W.Salary FROM Company X "
    "OID FUNCTION OF X, W WHERE X.Divisions.Employees[W]"
)

SPEEDUP_TARGET = 3.0

#: The cost-planner benchmark: selective predicates over a workload big
#: enough that an index probe dwarfs the extent scan.  ``Name`` values
#: are unique per person in the generator, so the point predicates below
#: select exactly one binding out of 400.
SELECTIVE_WORKLOAD = WorkloadConfig(n_people=400, seed=42)
SELECTIVE_QUERIES: List[Tuple[str, str]] = [
    ("S1", "SELECT X FROM Person X WHERE X.Name['P123']"),
    (
        "S2",
        "SELECT X, Y FROM Person X, Person Y "
        "WHERE X.Name['P7'] and X.Residence[R] and Y.Residence[R]",
    ),
    (
        "S3",
        "SELECT X, S FROM Employee X "
        "WHERE X.Name['P11'] and X.Salary[S]",
    ),
]
SELECTIVE_TARGET = 5.0

#: The join-executor benchmark: ``join_mode="hash"`` (factored hash
#: joins) vs ``join_mode="nested"`` (merged, per-binding evaluation)
#: under identical ``plan="cost"`` join orders.  J1 is a self-join, J2 a
#: fan-out chain join, J3 a star with two equality edges; all three pay
#: the cross product under nested-loop execution.  Hash must beat nested
#: on every query, and no query's hash p50 may exceed
#: ``JOIN_BASELINE_FACTOR`` times its baseline-artifact p50 (the
#: absolute-regression convention of ``bench_scale``).
JOIN_WORKLOAD = WorkloadConfig(n_people=160, n_companies=6, seed=7)
JOIN_QUERIES: List[Tuple[str, str]] = [
    (
        "J1",
        "SELECT X, Y FROM Employee X, Employee Y "
        "WHERE X.Salary =some Y.Salary",
    ),
    (
        "J2",
        "SELECT X, Y FROM Person X, Automobile Y "
        "WHERE X.Age =some Y.Drivetrain.Engine.HPpower",
    ),
    (
        "J3",
        "SELECT D, X, Y FROM Division D, Employee X, Employee Y "
        "WHERE D.Manager.Salary =some X.Salary "
        "and D.Location.City =some Y.Residence.City",
    ),
]
JOIN_BASELINE_FACTOR = 2.0

#: The checked-in artifact the join gate compares against by default.
DEFAULT_BASELINE = Path(__file__).with_name("BENCH_pipeline.json")

#: The pointer-join benchmark: ``pointer_join="force"`` vs ``"off"``
#: under identical ``plan="cost"`` join orders, with ``Name`` indexed
#: so the kept side is a probe and the *skipped* extent dominates.  V1
#: navigates one stored-oid edge instead of scanning and hashing the
#: employee extent; V2 is a star with two fused navigation edges.  The
#: pointer side must beat the hash side on every query, and no query's
#: pointer p50 may exceed ``POINTER_BASELINE_FACTOR`` times its
#: baseline-artifact p50 (the form of the join gate).
POINTER_WORKLOAD = WorkloadConfig(n_people=1000, n_companies=8, seed=11)
POINTER_QUERIES: List[Tuple[str, str]] = [
    (
        "V1",
        "SELECT D, Y FROM Division D, Employee Y "
        "WHERE D.Name['Div2_1'] and D.Manager =some Y",
    ),
    (
        "V2",
        "SELECT D, M, A FROM Division D, Employee M, Address A "
        "WHERE D.Name['Div3_0'] and D.Manager =some M "
        "and D.Location =some A",
    ),
]
POINTER_BASELINE_FACTOR = 2.0

#: The cold-path benchmark: the ``oltp`` snapshot scan with the walker
#: memo cold.  C1 pins a fresh SnapshotSession per round and times its
#: first scan (compile included, as the workload runs it); C2 times a
#: prepared live run right after a point write, which drops the memo.
#: No p50 may exceed ``COLD_BASELINE_FACTOR`` times its baseline p50.
COLD_WORKLOAD = WorkloadConfig(n_people=2000, n_companies=8, seed=19)
COLD_SCAN = (
    "SELECT X.Name, X.Salary FROM Employee X WHERE X.Salary > 300000"
)
COLD_BASELINE_FACTOR = 2.0

#: The term benchmark: operations per timed round, and the gate factor
#: against the baseline artifact's p50s.
TERMS_SIZE = 10_000
TERMS_BASELINE_FACTOR = 2.0

#: The shape benchmark: a shape-hit prepare of every paper query with
#: literals must cost at most this fraction of its cold prepare.
SHAPE_HIT_LIMIT = 0.5
#: The gated ratio is the median over ``SHAPE_REPEATS`` repetitions;
#: each repetition times ``SHAPE_ROUNDS`` cold, then as many shape-hit
#: prepares (tens of microseconds each, so several per repetition).
SHAPE_REPEATS = 7
SHAPE_ROUNDS = 9

#: Per-query (name, cold, exact_hit, shape_hit, shape/cold) prepare
#: figures of the shape benchmark.
ShapeResult = Tuple[str, float, float, float, float]

#: The compile-scaling benchmark: cold ``plan="cost"`` compiles of
#: distinct point lookups (every text misses the statement cache) on a
#: small and a ten-times-larger store.  Scaled people are named
#: ``P<index>``, so every text selects one person.
COMPILE_SIZES = (2_000, 20_000)
COMPILE_TEXTS = 200
COMPILE_SCALING_LIMIT = 2.0

#: The maintenance-scaling benchmark: per-change store operations on
#: the compile benchmark's two store sizes.  Every store gets the same
#: fixed ``Probe`` class; each round times one ``extent("Probe")`` and
#: one ``purge_object`` of a scaled person (``s_p<index>``, whose
#: ``Name`` cell sits in the enabled index).
MAINTENANCE_CLASS_SIZE = 10
MAINTENANCE_ROUNDS = 200
MAINTENANCE_SCALING_LIMIT = 2.0

#: The view-maintenance benchmark (V3): k point salary writes, then a
#: re-read of one view object through its id-term — the lazy targeted
#: sync re-derives only the written groups — against the same writes
#: followed by a full view recompute (refresh).
VIEW_WORKLOAD = WorkloadConfig(n_people=400, n_companies=6, seed=13)
VIEW_STATEMENT = (
    "CREATE VIEW CompSalaries AS SUBCLASS OF Object "
    "SIGNATURE CompName = String, Salary = Numeral "
    "SELECT CompName = X.Name, Salary = W.Salary "
    "FROM Company X OID FUNCTION OF X, W "
    "WHERE X.Divisions[Y].Employees[W]"
)
VIEW_WRITES = 3
VIEW_TARGET = 5.0

#: The MVCC snapshot-read benchmark: the paper's read-only pool Q1–Q12
#: re-run through a pinned :class:`SnapshotSession` (a copy-on-write
#: StoreView over the same store) against the same prepared re-runs on
#: the base session.  Q13 is excluded: it creates objects and snapshots
#: are read-only.  The criterion gates the *aggregate* ratio — total
#: snapshot time over total direct time — because the individual paper
#: queries run in microseconds and per-query ratios are timing noise.
SNAPSHOT_OVERHEAD_LIMIT = 1.10


def _paper_session() -> Session:
    session = Session()
    build_figure1_schema(session.store)
    populate_paper_database(session.store)
    return session


def _timings(action: Callable[[], object], rounds: int) -> List[float]:
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        action()
        times.append(time.perf_counter() - started)
    return times


def _median_seconds(action: Callable[[], object], rounds: int) -> float:
    return statistics.median(_timings(action, rounds))


def probed(measure_group: Callable, *args, **kwargs) -> Tuple[object, float]:
    """``(results, probe_ms)``: *measure_group*'s results, and the host's
    speed while it ran — the median ``SpeedProbe`` reference-loop time,
    in milliseconds, over the samples taken right before and after."""
    probe = SpeedProbe()
    probe.sample(SpeedProbe.WINDOW)
    results = measure_group(*args, **kwargs)
    probe.sample(SpeedProbe.WINDOW)
    return results, statistics.median(probe.seconds) * 1000


def measure(
    plan: str = "typed", rounds: int = 9
) -> List[Tuple[str, float, float]]:
    """Per-query (name, cold_seconds, cached_seconds) medians."""
    session = _paper_session()
    results = []
    for name, text in PAPER_QUERIES:
        def cold() -> None:
            session.pipeline.clear()
            session.query(text, plan=plan)

        cold_s = _median_seconds(cold, rounds)
        compiled = session.prepare(text, plan=plan)
        compiled.run()  # warm the compilation before timing re-runs
        cached_s = _median_seconds(compiled.run, rounds)
        results.append((name, cold_s, cached_s))
    # Q13 creates objects on every run (a fresh functor per execution),
    # so it rides on its own session and is reported but not part of the
    # speedup criterion: its cost is creation, not compilation.
    creation_session = _paper_session()

    def q13_cold() -> None:
        creation_session.pipeline.clear()
        creation_session.query(Q13_CREATION)

    q13_cold_s = _median_seconds(q13_cold, rounds)
    q13_compiled = creation_session.prepare(Q13_CREATION)
    q13_cached_s = _median_seconds(q13_compiled.run, rounds)
    results.append(("Q13*", q13_cold_s, q13_cached_s))
    return results


def measure_shape(
    plan: str = "typed",
    repeats: int = SHAPE_REPEATS,
    rounds: int = SHAPE_ROUNDS,
) -> List[ShapeResult]:
    """Per-query prepare medians and the shape-hit / cold ratio.

    Only paper queries with literals take part.  The shape hit prepares
    the query's :func:`~repro.difftest.oracle.shape_sibling` (every
    literal swapped for a fresh one of its kind) while the query itself
    is the cached entry; each of those prepares must count a
    ``cache.rebind``.  A repetition times *rounds* cold prepares, then
    *rounds* shape-hit prepares; repetitions alternate the two, so a
    slow stretch of the host slows both sides of a ratio.  The ratio is
    the median over *repeats* repetitions of each repetition's median
    shape-hit over its median cold prepare.
    """
    session = _paper_session()
    counters = session.metrics.counters
    results = []
    for name, text in PAPER_QUERIES:
        if not statement_shape(tokenize(text))[1]:
            continue
        sibling = shape_sibling(text)
        rebinds = counters.get("cache.rebind", 0)
        colds: List[float] = []
        shapes: List[float] = []
        ratios = []

        def cold() -> None:
            session.pipeline.clear()
            session.prepare(text, plan=plan)

        for _ in range(repeats):
            cold_round = _timings(cold, rounds)
            shape_round = _timings(
                lambda: session.prepare(sibling, plan=plan), rounds
            )
            ratios.append(
                statistics.median(shape_round) / statistics.median(cold_round)
            )
            colds += cold_round
            shapes += shape_round
        assert counters.get("cache.rebind", 0) == (
            rebinds + repeats * rounds
        ), name
        exact_s = _median_seconds(
            lambda: session.prepare(text, plan=plan), repeats * rounds
        )
        results.append(
            (
                name,
                statistics.median(colds),
                exact_s,
                statistics.median(shapes),
                statistics.median(ratios),
            )
        )
    return results


def worst_shape_ratio(results: List[ShapeResult]) -> float:
    """The largest shape-hit / cold prepare ratio over the queries."""
    return max(ratio for *_times, ratio in results)


def report_shape(results: List[ShapeResult]) -> str:
    lines = [
        "shape-keyed statement cache: prepare of the paper queries with "
        "literals",
        f"{'query':6s} {'cold':>10s} {'exact':>10s} {'shape':>10s} "
        f"{'shape/cold':>10s}",
    ]
    for name, cold, exact, shape, ratio in results:
        lines.append(
            f"{name:6s} {cold * 1000:8.3f}ms {exact * 1000:8.3f}ms "
            f"{shape * 1000:8.3f}ms {ratio:9.2f}x"
        )
    lines.append(
        f"worst shape/cold: {worst_shape_ratio(results):.2f}x "
        f"(limit <= {SHAPE_HIT_LIMIT:g}x on every query)"
    )
    return "\n".join(lines)


def measure_selective(
    rounds: int = 9,
) -> List[Tuple[str, float, float, int]]:
    """Per-query (name, scan_seconds, cost_seconds, rows) medians.

    Both sides time a *prepared* re-run, so compilation is off the
    clock and the difference is purely the access path: greedy extent
    scans (indexes forbidden) vs. the cost plan's index probes.
    """
    scan_session = Session(generate_database(SELECTIVE_WORKLOAD))
    scan_session.index_mode = "off"
    cost_session = Session(generate_database(SELECTIVE_WORKLOAD))
    results = []
    for name, text in SELECTIVE_QUERIES:
        scan = scan_session.prepare(text, plan="greedy")
        cost = cost_session.prepare(text, plan="cost")
        scan_rows = scan.run().rows()
        cost_rows = cost.run().rows()
        assert scan_rows == cost_rows, f"{name}: plans disagree"
        scan_s = _median_seconds(scan.run, rounds)
        cost_s = _median_seconds(cost.run, rounds)
        results.append((name, scan_s, cost_s, len(cost_rows)))
    return results


def measure_joins(
    rounds: int = 5,
) -> List[Tuple[str, float, float, int]]:
    """Per-query (name, nested_seconds, hash_seconds, rows) medians.

    Both sides re-run a *prepared* ``plan="cost"`` compilation, so the
    join order is identical and the difference is purely the executor:
    tuple-at-a-time nested loops vs factored hash joins.
    """
    nested_session = Session(generate_database(JOIN_WORKLOAD))
    hash_session = Session(generate_database(JOIN_WORKLOAD))
    results = []
    for name, text in JOIN_QUERIES:
        nested = nested_session.prepare(
            text, plan="cost", join_mode="nested"
        )
        hashed = hash_session.prepare(text, plan="cost")
        nested_rows = nested.run().rows()
        hash_rows = hashed.run().rows()
        assert nested_rows == hash_rows, f"{name}: executors disagree"
        nested_s = _median_seconds(nested.run, rounds)
        hash_s = _median_seconds(hashed.run, rounds)
        results.append((name, nested_s, hash_s, len(hash_rows)))
    return results


def measure_pointer(
    rounds: int = 7,
) -> List[Tuple[str, float, float, int]]:
    """Per-query (name, hash_seconds, pointer_seconds, rows) medians.

    Both sides re-run a *prepared* ``plan="cost"`` compilation with the
    ``Name`` index enabled, so the difference is purely the join
    machinery on the fused conjuncts: extent scan + hash build/probe
    (``pointer_join="off"``) vs stored-cell dereference
    (``pointer_join="force"``).
    """
    hash_session = Session(generate_database(POINTER_WORKLOAD))
    hash_session.enable_index("Name")
    pointer_session = Session(generate_database(POINTER_WORKLOAD))
    pointer_session.enable_index("Name")
    results = []
    for name, text in POINTER_QUERIES:
        hashed = hash_session.prepare(text, plan="cost", pointer_join="off")
        fused = pointer_session.prepare(
            text, plan="cost", pointer_join="force"
        )
        hash_rows = hashed.run().rows()
        fused_rows = fused.run().rows()
        assert hash_rows == fused_rows, f"{name}: join machineries disagree"
        hash_s = _median_seconds(hashed.run, rounds)
        fused_s = _median_seconds(fused.run, rounds)
        results.append((name, hash_s, fused_s, len(fused_rows)))
    return results


def measure_cold(rounds: int = 9) -> List[Tuple[str, float, int]]:
    """Per-query (name, p50_seconds, rows) of the cold-memo scan.

    C1: each round pins a new snapshot and times its first scan.  C2:
    each round writes one salary (below the scan's floor, so the
    answer keeps its size) and times the prepared live re-run.  Both
    answers are checked against ``plan="none"`` off the clock.
    """
    session = Session(generate_database(COLD_WORKLOAD))
    expected = session.query(COLD_SCAN, plan="none").rows()
    snapshot_times = []
    for _ in range(rounds):
        with session.snapshot_view() as snap:
            started = time.perf_counter()
            rows = snap.query(COLD_SCAN, plan="cost").rows()
            snapshot_times.append(time.perf_counter() - started)
        assert rows == expected, "C1: snapshot scan disagrees"
    compiled = session.prepare(COLD_SCAN, plan="cost")
    compiled.run()
    target = min(
        (
            obj
            for obj in session.store.extent("Employee")
            if session.store.invoke_scalar(obj, "Salary").value < 300000
        ),
        key=str,
    )
    live_times = []
    for index in range(rounds):
        session.execute(
            f"UPDATE CLASS Employee SET {target}.Salary = {20000 + index}"
        )
        started = time.perf_counter()
        rows = compiled.run().rows()
        live_times.append(time.perf_counter() - started)
    assert rows == session.query(COLD_SCAN, plan="none").rows(), (
        "C2: live scan disagrees"
    )
    return [
        ("C1", statistics.median(snapshot_times), len(expected)),
        ("C2", statistics.median(live_times), len(rows)),
    ]


def cold_baseline_regressions(
    results: List[Tuple[str, float, int]],
    baseline: Dict[str, object],
    probe_ms: float,
    factor: float = COLD_BASELINE_FACTOR,
) -> List[str]:
    """C queries whose cold p50 regressed against the baseline."""
    return _baseline_regressions(
        [(name, seconds) for name, seconds, _rows in results],
        baseline, "cold", "cold", factor, probe_ms,
    )


def measure_terms(rounds: int = 9) -> List[Tuple[str, float]]:
    """Per-operation (name, p50_seconds) of the id-term operations.

    The lookup keys are built from fresh term instances, equal to the
    stored ones but not identical, as a memo key built from a query's
    literals is to one built from a stored cell.
    """
    n = TERMS_SIZE
    memo = {(i % 7, Atom(f"o{i}"), Value(i)): i for i in range(n)}
    memo_keys = [(i % 7, Atom(f"o{i}"), Value(i)) for i in range(n)]
    values = [Value(i) for i in range(n)]
    env = {Variable(f"V{i}"): Atom(f"o{i}") for i in range(8)}
    env_keys = [Variable(f"V{i % 8}") for i in range(n)]

    def lookups() -> None:
        for key in memo_keys:
            memo[key]

    def build_set() -> None:
        frozenset(values)

    def bindings() -> None:
        for var in env_keys:
            env[var]

    return [
        (name, _median_seconds(action, rounds))
        for name, action in (
            ("T1", lookups), ("T2", build_set), ("T3", bindings)
        )
    ]


def terms_baseline_regressions(
    results: List[Tuple[str, float]],
    baseline: Dict[str, object],
    probe_ms: float,
    factor: float = TERMS_BASELINE_FACTOR,
) -> List[str]:
    """T operations whose p50 regressed against the baseline."""
    return _baseline_regressions(
        results, baseline, "terms", "terms", factor, probe_ms
    )


def report_terms(results: List[Tuple[str, float]]) -> str:
    labels = {
        "T1": "memo lookups on (int, Atom, Value) keys",
        "T2": "frozenset of Value oids",
        "T3": "binding-dict lookups keyed by Variable",
    }
    lines = [
        f"id-term operations ({TERMS_SIZE:,} per round):",
        f"{'op':>6}  {'p50':>10}  what",
    ]
    for name, seconds in results:
        lines.append(
            f"{name:>6}  {seconds * 1000:>8.3f}ms  {labels.get(name, '')}"
        )
    return "\n".join(lines)


def report_cold(results: List[Tuple[str, float, int]]) -> str:
    labels = {
        "C1": "first scan on a new snapshot",
        "C2": "prepared live run after a write",
    }
    lines = [
        "cold-memo scans (oltp snapshot scan, "
        f"{COLD_WORKLOAD.n_people:,} people):",
        f"{'query':>6}  {'p50':>10}  {'rows':>5}  what",
    ]
    for name, seconds, rows in results:
        lines.append(
            f"{name:>6}  {seconds * 1000:>8.3f}ms  {rows:>5}  "
            f"{labels.get(name, '')}"
        )
    return "\n".join(lines)


def measure_compile() -> List[Tuple[int, float]]:
    """Per-size (n_objects, prepare_p50_seconds) under ``plan="cost"``.

    The sizes take turns text by text, so host noise lands on both
    medians alike.  One untimed compile per session first auto-enables
    the ``Name`` index, a one-off O(store) build that is not part of
    compiling a query.
    """
    sessions = [
        Session(generate_scaled(ScaleSpec(n_objects=n_objects)))
        for n_objects in COMPILE_SIZES
    ]
    times: List[List[float]] = [[] for _ in sessions]
    for index in range(COMPILE_TEXTS + 1):
        text = f"SELECT X FROM Person X WHERE X.Name['P{index}']"
        for session, samples in zip(sessions, times):
            # A cold compile: with the entry of this text's shape in the
            # cache, the prepare would only rebind the literal.
            session.pipeline.clear()
            started = time.perf_counter()
            session.prepare(text, plan="cost")
            if index:
                samples.append(time.perf_counter() - started)
    return [
        (n_objects, statistics.median(samples))
        for n_objects, samples in zip(COMPILE_SIZES, times)
    ]


def compile_scaling(results: List[Tuple[int, float]]) -> float:
    """Largest-store compile p50 over smallest-store compile p50."""
    return results[-1][1] / results[0][1]


def report_compile(results: List[Tuple[int, float]]) -> str:
    lines = [
        f"compile scaling: prepare(plan=cost) p50 over {COMPILE_TEXTS} "
        "distinct point lookups",
        f"{'objects':>8s} {'p50':>10s}",
    ]
    for n_objects, p50 in results:
        lines.append(f"{n_objects:8d} {p50 * 1000:8.3f}ms")
    lines.append(
        f"scaling: {compile_scaling(results):.2f}x "
        f"(limit <= {COMPILE_SCALING_LIMIT:g}x)"
    )
    return "\n".join(lines)


def measure_maintenance() -> List[Tuple[int, float, float]]:
    """Per-size (n_objects, extent_p50_seconds, purge_p50_seconds).

    The sizes take turns round by round, so host noise lands on both
    medians alike.
    """
    stores = []
    for n_objects in COMPILE_SIZES:
        store = generate_scaled(ScaleSpec(n_objects=n_objects))
        store.enable_index("Name")
        store.declare_class("Probe")
        for index in range(MAINTENANCE_CLASS_SIZE):
            store.create_object(Atom(f"probe{index}"), ["Probe"])
        stores.append(store)
    extent_times: List[List[float]] = [[] for _ in stores]
    purge_times: List[List[float]] = [[] for _ in stores]
    for index in range(MAINTENANCE_ROUNDS):
        victim = Atom(f"s_p{index}")
        for store, extents, purges in zip(stores, extent_times, purge_times):
            started = time.perf_counter()
            members = store.extent("Probe")
            extents.append(time.perf_counter() - started)
            assert len(members) == MAINTENANCE_CLASS_SIZE
            started = time.perf_counter()
            store.purge_object(victim)
            purges.append(time.perf_counter() - started)
    return [
        (n_objects, statistics.median(extents), statistics.median(purges))
        for n_objects, extents, purges in zip(
            COMPILE_SIZES, extent_times, purge_times
        )
    ]


def maintenance_scaling(
    results: List[Tuple[int, float, float]]
) -> Tuple[float, float]:
    """(extent, purge): largest-store p50 over smallest-store p50."""
    return (
        results[-1][1] / results[0][1],
        results[-1][2] / results[0][2],
    )


def maintenance_flat(results: List[Tuple[int, float, float]]) -> bool:
    return max(maintenance_scaling(results)) <= MAINTENANCE_SCALING_LIMIT


def report_maintenance(results: List[Tuple[int, float, float]]) -> str:
    lines = [
        f"maintenance scaling: p50 over {MAINTENANCE_ROUNDS} rounds, "
        f"Name index on, {MAINTENANCE_CLASS_SIZE}-object class",
        f"{'objects':>8s} {'extent':>10s} {'purge':>10s}",
    ]
    for n_objects, extent_p50, purge_p50 in results:
        lines.append(
            f"{n_objects:8d} {extent_p50 * 1000:8.3f}ms "
            f"{purge_p50 * 1000:8.3f}ms"
        )
    extent_x, purge_x = maintenance_scaling(results)
    lines.append(
        f"scaling: extent {extent_x:.2f}x, purge {purge_x:.2f}x "
        f"(limit <= {MAINTENANCE_SCALING_LIMIT:g}x)"
    )
    return "\n".join(lines)


def measure_view_maintenance(
    rounds: int = 5, writes: int = VIEW_WRITES
) -> Tuple[float, float, int]:
    """(targeted_seconds, recompute_seconds, groups) for V3.

    One session, one materialized view.  Each targeted round makes
    ``writes`` point salary updates and re-reads one view object
    through its id-term — the pipeline's lazy sync re-derives only the
    affected groups first.  Each recompute round makes the same writes
    and refreshes the whole view before the identical read.
    """
    from repro.oid import Value

    session = Session(generate_database(VIEW_WORKLOAD))
    session.query(VIEW_STATEMENT)
    view = session.views.get("CompSalaries")
    owners = [
        derivation.target
        for (oid, attr), derivation in sorted(
            view.outcome.derivations.items(), key=lambda kv: str(kv[0][0])
        )
        if attr == "Salary"
    ][:writes]
    assert owners, "no salary derivations to write through"
    target = sorted(view.outcome.created, key=str)[0]
    read = f"SELECT {target}.Salary"
    groups = len(view.outcome.created)
    bump = [0]

    def write_points() -> None:
        bump[0] += 1
        for owner in owners:
            session.store.set_attr(
                owner, "Salary", Value(260_000 + bump[0])
            )

    def targeted():
        write_points()
        return session.query(read)

    def recompute():
        write_points()
        session.views.refresh("CompSalaries", session.evaluator())
        return session.query(read)

    # Both paths must serve the freshly written value before timing.
    assert targeted().rows() == frozenset({(Value(260_001),)})
    assert recompute().rows() == frozenset({(Value(260_002),)})
    targeted_s = _median_seconds(targeted, rounds)
    recompute_s = _median_seconds(recompute, rounds)
    return targeted_s, recompute_s, groups


def measure_snapshot(
    rounds: int = 9,
) -> List[Tuple[str, float, float]]:
    """Per-query (name, direct_seconds, snapshot_seconds) medians.

    Both sides time *prepared* re-runs (compilation off the clock): the
    direct side on the base session, the snapshot side on one pinned
    SnapshotSession whose StoreView overlays pre-image chains on every
    read.  Row sets are asserted equal before timing.
    """
    session = _paper_session()
    results = []
    with session.snapshot_view() as snap:
        for name, text in PAPER_QUERIES:
            direct = session.prepare(text)
            through = snap.prepare(text)
            assert direct.run().rows() == through.run().rows(), name
            direct_s = _median_seconds(direct.run, rounds)
            snapshot_s = _median_seconds(through.run, rounds)
            results.append((name, direct_s, snapshot_s))
    return results


def snapshot_overhead(results: List[Tuple[str, float, float]]) -> float:
    """Aggregate snapshot/direct time ratio over the read-only pool."""
    direct = sum(d for _name, d, _s in results)
    snapshot = sum(s for _name, _d, s in results)
    return snapshot / direct if direct else 1.0


def report_snapshot(results: List[Tuple[str, float, float]]) -> str:
    lines = [
        "MVCC snapshot reads (prepared re-runs, pinned StoreView "
        "vs direct):",
        f"{'query':>6}  {'direct':>10}  {'snapshot':>10}  {'ratio':>7}",
    ]
    for name, direct, snapshot in results:
        ratio = snapshot / direct if direct else float("nan")
        lines.append(
            f"{name:>6}  {direct * 1000:>8.3f}ms  "
            f"{snapshot * 1000:>8.3f}ms  {ratio:>6.2f}x"
        )
    lines.append(
        f"aggregate overhead: {snapshot_overhead(results):.3f}x "
        f"(limit {SNAPSHOT_OVERHEAD_LIMIT:.2f}x)"
    )
    return "\n".join(lines)


def measure_estimation() -> List[Dict[str, object]]:
    """Per-operator cardinality-estimation error under ``plan="cost"``.

    Runs the selective (S1–S3) and join (J1–J3) workloads once each
    through EXPLAIN ANALYZE and walks the instrumented operator tree:
    every operator that carries a planner estimate contributes one
    record with its estimated and actual row counts and the relative
    error ``|est - act| / max(1, act)``.
    """
    records: List[Dict[str, object]] = []
    workloads = [
        (SELECTIVE_WORKLOAD, SELECTIVE_QUERIES),
        (JOIN_WORKLOAD, JOIN_QUERIES),
    ]
    for config, queries in workloads:
        session = Session(generate_database(config))
        for name, text in queries:
            compiled = session.prepare(text, plan="cost")
            json.loads(compiled.explain(format="json", analyze=True))
            stack = [compiled.last_optree]
            while stack:
                node = stack.pop()
                stack.extend(node.get("children", ()))
                estimate = node.get("estimated_rows")
                if estimate is None:
                    continue
                actual = node["rows_out"]
                records.append(
                    {
                        "query": name,
                        "operator": node["operator"],
                        "label": node["label"],
                        "estimated_rows": estimate,
                        "actual_rows": actual,
                        "relative_error": round(
                            abs(estimate - actual) / max(1, actual), 3
                        ),
                    }
                )
    return records


def report_estimation(records: List[Dict[str, object]]) -> str:
    lines = [
        "cardinality estimation: per-operator est vs actual "
        "(EXPLAIN ANALYZE, plan=cost)",
        f"{'query':6s} {'operator':14s} {'est':>8s} {'act':>8s} "
        f"{'rel.err':>8s}  label",
    ]
    for record in records:
        lines.append(
            f"{record['query']:6s} {record['operator']:14s} "
            f"{record['estimated_rows']:8g} {record['actual_rows']:8d} "
            f"{record['relative_error']:8.3f}  {record['label']}"
        )
    errors = [record["relative_error"] for record in records]
    lines.append(
        f"operators: {len(records)}  "
        f"mean rel.err: {statistics.mean(errors):.3f}  "
        f"max rel.err: {max(errors):.3f}"
    )
    return "\n".join(lines)


def estimation_as_json(
    records: List[Dict[str, object]]
) -> Dict[str, object]:
    errors = [record["relative_error"] for record in records]
    return {
        "operators": records,
        "mean_relative_error": round(statistics.mean(errors), 3),
        "max_relative_error": round(max(errors), 3),
    }


def best_speedup(results: List[Tuple[str, float, float]]) -> float:
    return max(
        cold / cached
        for name, cold, cached in results
        if cached > 0 and not name.endswith("*")
    )


def best_selective_speedup(
    results: List[Tuple[str, float, float, int]]
) -> float:
    return max(
        scan / cost for _name, scan, cost, _rows in results if cost > 0
    )


def hash_beats_nested(results: List[Tuple[str, float, float, int]]) -> bool:
    """Every J workload must run faster hashed than nested."""
    return all(hashed < nested for _name, nested, hashed, _rows in results)


def _baseline_regressions(
    measured: List[Tuple[str, float]],
    baseline: Dict[str, object],
    section: str,
    side: str,
    factor: float,
    probe_ms: float,
) -> List[str]:
    """Queries whose probe-scaled *side* p50 exceeds *factor* x the
    baseline's, or that the baseline's *section* has no entry or no
    probe time for (a missing one fails rather than silently turning
    the gate off).

    A p50 is scaled by ``NOMINAL / probe``: *probe_ms* for this run, the
    baseline's ``probe_ms[section]`` for the artifact.  Both sides are
    then milliseconds on a host where the probe loop takes
    ``SpeedProbe.NOMINAL_S``.
    """
    nominal_ms = SpeedProbe.NOMINAL_S * 1000
    base = {
        entry["query"]: entry[f"{side}_ms"]
        for entry in baseline.get(section, [])
    }
    base_probe = baseline.get("probe_ms", {}).get(section)
    problems = []
    for name, seconds in measured:
        base_ms = base.get(name)
        if not base_ms:
            problems.append(f"{name}: no {side} p50 in the baseline")
        elif not base_probe:
            problems.append(f"{name}: no {section} probe time in the baseline")
        else:
            now = seconds * 1000 * nominal_ms / probe_ms
            then = base_ms * nominal_ms / base_probe
            if now > then * factor:
                problems.append(
                    f"{name}: {side} p50 {now:.3f}ms (probe-scaled) is "
                    f">{factor:g}x above baseline {then:.3f}ms"
                )
    return problems


def join_baseline_regressions(
    results: List[Tuple[str, float, float, int]],
    baseline: Dict[str, object],
    probe_ms: float,
    factor: float = JOIN_BASELINE_FACTOR,
) -> List[str]:
    """J queries whose hash p50 regressed against the baseline."""
    return _baseline_regressions(
        [(name, hashed) for name, _nested, hashed, _rows in results],
        baseline, "joins", "hash", factor, probe_ms,
    )


def pointer_baseline_regressions(
    results: List[Tuple[str, float, float, int]],
    baseline: Dict[str, object],
    probe_ms: float,
    factor: float = POINTER_BASELINE_FACTOR,
) -> List[str]:
    """V queries whose pointer p50 regressed against the baseline."""
    return _baseline_regressions(
        [(name, fused) for name, _hashed, fused, _rows in results],
        baseline, "pointer", "pointer", factor, probe_ms,
    )


def pointer_beats_hash(results: List[Tuple[str, float, float, int]]) -> bool:
    """Every V workload must run faster fused than hashed."""
    return all(fused < hashed for _name, hashed, fused, _rows in results)


def worst_pointer_speedup(
    results: List[Tuple[str, float, float, int]]
) -> float:
    """The *minimum* hash/pointer ratio over the V workloads."""
    return min(
        hashed / fused
        for _name, hashed, fused, _rows in results
        if fused > 0
    )


def view_maintenance_speedup(
    maintenance: Tuple[float, float, int]
) -> float:
    targeted_s, recompute_s, _groups = maintenance
    return recompute_s / targeted_s if targeted_s else float("inf")


def report_pointer(
    results: List[Tuple[str, float, float, int]]
) -> str:
    lines = [
        "pointer joins: hash execution vs stored-oid navigation "
        f"(plan=cost, {POINTER_WORKLOAD.n_people} people)",
        f"{'query':6s} {'hash':>10s} {'pointer':>10s} {'speedup':>8s} "
        f"{'rows':>5s}",
    ]
    for name, hashed, fused, rows in results:
        ratio = hashed / fused if fused else float("inf")
        lines.append(
            f"{name:6s} {hashed * 1000:8.3f}ms {fused * 1000:8.3f}ms "
            f"{ratio:7.2f}x {rows:5d}"
        )
    lines.append(
        f"worst speedup: {worst_pointer_speedup(results):.2f}x; "
        "pointer beats hash on every workload: "
        f"{'yes' if pointer_beats_hash(results) else 'NO'}"
    )
    return "\n".join(lines)


def report_view_maintenance(
    maintenance: Tuple[float, float, int]
) -> str:
    targeted_s, recompute_s, groups = maintenance
    return (
        f"view maintenance (V3): re-read after {VIEW_WRITES} point "
        f"writes, {groups}-group view "
        f"({VIEW_WORKLOAD.n_people} people)\n"
        f"targeted sync {targeted_s * 1000:.3f}ms vs full recompute "
        f"{recompute_s * 1000:.3f}ms: "
        f"{view_maintenance_speedup(maintenance):.2f}x "
        f"(target >= {VIEW_TARGET:.0f}x)"
    )


def report(results: List[Tuple[str, float, float]]) -> str:
    lines = [
        "pipeline cache: cold (compile+run) vs cached (prepared re-run)",
        f"{'query':6s} {'cold':>10s} {'cached':>10s} {'speedup':>8s}",
    ]
    for name, cold, cached in results:
        ratio = cold / cached if cached else float("inf")
        lines.append(
            f"{name:6s} {cold * 1000:8.3f}ms {cached * 1000:8.3f}ms "
            f"{ratio:7.2f}x"
        )
    lines.append(
        f"best speedup: {best_speedup(results):.2f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x; * = creation query, excluded)"
    )
    return "\n".join(lines)


def report_selective(
    results: List[Tuple[str, float, float, int]]
) -> str:
    lines = [
        "cost planner: greedy extent scan vs cost-plan index probe "
        f"({SELECTIVE_WORKLOAD.n_people} people)",
        f"{'query':6s} {'scan':>10s} {'cost':>10s} {'speedup':>8s} "
        f"{'rows':>5s}",
    ]
    for name, scan, cost, rows in results:
        ratio = scan / cost if cost else float("inf")
        lines.append(
            f"{name:6s} {scan * 1000:8.3f}ms {cost * 1000:8.3f}ms "
            f"{ratio:7.2f}x {rows:5d}"
        )
    lines.append(
        f"best speedup: {best_selective_speedup(results):.2f}x "
        f"(target >= {SELECTIVE_TARGET:.0f}x)"
    )
    return "\n".join(lines)


def report_joins(
    results: List[Tuple[str, float, float, int]]
) -> str:
    lines = [
        "join executor: nested-loop vs hash-join under plan=cost "
        f"({JOIN_WORKLOAD.n_people} people)",
        f"{'query':6s} {'nested':>10s} {'hash':>10s} {'speedup':>8s} "
        f"{'rows':>5s}",
    ]
    for name, nested, hashed, rows in results:
        ratio = nested / hashed if hashed else float("inf")
        lines.append(
            f"{name:6s} {nested * 1000:8.3f}ms {hashed * 1000:8.3f}ms "
            f"{ratio:7.2f}x {rows:5d}"
        )
    lines.append(
        "hash beats nested on every workload: "
        f"{'yes' if hash_beats_nested(results) else 'NO'}"
    )
    return "\n".join(lines)


def as_json(
    cache_results: List[Tuple[str, float, float]],
    selective_results: List[Tuple[str, float, float, int]],
    join_results: List[Tuple[str, float, float, int]],
    pointer_results: List[Tuple[str, float, float, int]],
    maintenance: Tuple[float, float, int],
    snapshot_results: List[Tuple[str, float, float]],
    compile_results: List[Tuple[int, float]],
    maintenance_results: List[Tuple[int, float, float]],
    shape_results: List[ShapeResult],
    cold_results: List[Tuple[str, float, int]],
    terms_results: List[Tuple[str, float]],
    probes: Dict[str, float],
) -> Dict[str, object]:
    """The JSON artifact CI uploads (``BENCH_pipeline.json``).

    *probes* holds the ``SpeedProbe`` loop time beside each timed group,
    by section name; the baseline gates scale by it.
    """
    targeted_s, recompute_s, groups = maintenance
    extent_x, purge_x = maintenance_scaling(maintenance_results)
    return {
        "probe_ms": {
            section: round(probe, 4) for section, probe in probes.items()
        },
        "targets": {
            "cache_speedup": SPEEDUP_TARGET,
            "selective_speedup": SELECTIVE_TARGET,
            "join_hash_baseline_factor": JOIN_BASELINE_FACTOR,
            "pointer_baseline_factor": POINTER_BASELINE_FACTOR,
            "cold_baseline_factor": COLD_BASELINE_FACTOR,
            "terms_baseline_factor": TERMS_BASELINE_FACTOR,
            "shape_hit_limit": SHAPE_HIT_LIMIT,
            "view_maintenance_speedup": VIEW_TARGET,
            "snapshot_overhead_limit": SNAPSHOT_OVERHEAD_LIMIT,
            "compile_scaling_limit": COMPILE_SCALING_LIMIT,
            "maintenance_scaling_limit": MAINTENANCE_SCALING_LIMIT,
        },
        "cache": [
            {
                "query": name,
                "cold_ms": round(cold * 1000, 4),
                "cached_ms": round(cached * 1000, 4),
                "speedup": round(cold / cached, 2) if cached else None,
            }
            for name, cold, cached in cache_results
        ],
        "best_cache_speedup": round(best_speedup(cache_results), 2),
        "shape": [
            {
                "query": name,
                "cold_ms": round(cold * 1000, 4),
                "exact_hit_ms": round(exact * 1000, 4),
                "shape_hit_ms": round(shape * 1000, 4),
                "shape_over_cold": round(ratio, 3),
            }
            for name, cold, exact, shape, ratio in shape_results
        ],
        "worst_shape_over_cold": round(worst_shape_ratio(shape_results), 3),
        "selective": [
            {
                "query": name,
                "scan_ms": round(scan * 1000, 4),
                "cost_ms": round(cost * 1000, 4),
                "speedup": round(scan / cost, 2) if cost else None,
                "rows": rows,
            }
            for name, scan, cost, rows in selective_results
        ],
        "best_selective_speedup": round(
            best_selective_speedup(selective_results), 2
        ),
        "joins": [
            {
                "query": name,
                "nested_ms": round(nested * 1000, 4),
                "hash_ms": round(hashed * 1000, 4),
                "speedup": round(nested / hashed, 2) if hashed else None,
                "rows": rows,
            }
            for name, nested, hashed, rows in join_results
        ],
        "hash_beats_nested": hash_beats_nested(join_results),
        "pointer": [
            {
                "query": name,
                "hash_ms": round(hashed * 1000, 4),
                "pointer_ms": round(fused * 1000, 4),
                "speedup": round(hashed / fused, 2) if fused else None,
                "rows": rows,
            }
            for name, hashed, fused, rows in pointer_results
        ],
        "worst_pointer_speedup": round(
            worst_pointer_speedup(pointer_results), 2
        ),
        "pointer_beats_hash": pointer_beats_hash(pointer_results),
        "cold": [
            {"query": name, "cold_ms": round(seconds * 1000, 4), "rows": rows}
            for name, seconds, rows in cold_results
        ],
        "terms": [
            {"query": name, "terms_ms": round(seconds * 1000, 4)}
            for name, seconds in terms_results
        ],
        "view_maintenance": {
            "writes": VIEW_WRITES,
            "groups": groups,
            "targeted_ms": round(targeted_s * 1000, 4),
            "recompute_ms": round(recompute_s * 1000, 4),
            "speedup": round(view_maintenance_speedup(maintenance), 2),
        },
        "snapshot": [
            {
                "query": name,
                "direct_ms": round(direct * 1000, 4),
                "snapshot_ms": round(snapshot * 1000, 4),
                "ratio": round(snapshot / direct, 3) if direct else None,
            }
            for name, direct, snapshot in snapshot_results
        ],
        "snapshot_overhead": round(snapshot_overhead(snapshot_results), 3),
        "compile": [
            {"n_objects": n_objects, "prepare_p50_ms": round(p50 * 1000, 4)}
            for n_objects, p50 in compile_results
        ],
        "compile_scaling": round(compile_scaling(compile_results), 2),
        "maintenance": [
            {
                "n_objects": n_objects,
                "extent_p50_ms": round(extent_p50 * 1000, 4),
                "purge_p50_ms": round(purge_p50 * 1000, 4),
            }
            for n_objects, extent_p50, purge_p50 in maintenance_results
        ],
        "maintenance_scaling": {
            "extent": round(extent_x, 2),
            "purge": round(purge_x, 2),
        },
    }


def test_cached_reexecution_at_least_3x_on_some_paper_query():
    results = measure(rounds=9)
    assert best_speedup(results) >= SPEEDUP_TARGET, report(results)


def test_cost_plan_beats_scans_5x_on_selective_predicates():
    results = measure_selective(rounds=9)
    assert best_selective_speedup(results) >= SELECTIVE_TARGET, (
        report_selective(results)
    )


def test_hash_joins_beat_nested_loops_on_every_join_workload():
    results = measure_joins(rounds=5)
    assert hash_beats_nested(results), report_joins(results)


def test_join_baseline_gate_fails_on_slow_or_missing_entries():
    results = [("J1", 1.0, 0.010, 5), ("J2", 1.0, 0.050, 5)]
    baseline = {"probe_ms": {"joins": 1.0},
                "joins": [{"query": "J1", "hash_ms": 10.0},
                          {"query": "J2", "hash_ms": 10.0}]}
    problems = join_baseline_regressions(results, baseline, 1.0)
    assert [line.split(":")[0] for line in problems] == ["J2"]
    assert join_baseline_regressions(results[:1], {}, 1.0) == [
        "J1: no hash p50 in the baseline"
    ]


def test_pointer_joins_beat_hash_on_every_pointer_workload():
    results, probe_ms = probed(measure_pointer, rounds=7)
    assert pointer_beats_hash(results), report_pointer(results)
    with open(DEFAULT_BASELINE) as handle:
        baseline = json.load(handle)
    regressions = pointer_baseline_regressions(results, baseline, probe_ms)
    assert not regressions, "\n".join(regressions)


def test_pointer_baseline_gate_fails_on_slow_or_missing_entries():
    results = [("V1", 1.0, 0.010, 1), ("V2", 1.0, 0.050, 1)]
    baseline = {"probe_ms": {"pointer": 1.0},
                "pointer": [{"query": "V1", "pointer_ms": 10.0},
                            {"query": "V2", "pointer_ms": 10.0}]}
    problems = pointer_baseline_regressions(results, baseline, 1.0)
    assert [line.split(":")[0] for line in problems] == ["V2"]
    assert pointer_baseline_regressions(results[:1], {}, 1.0) == [
        "V1: no pointer p50 in the baseline"
    ]


def test_cold_scans_within_2x_of_baseline():
    results, probe_ms = probed(measure_cold, rounds=5)
    with open(DEFAULT_BASELINE) as handle:
        baseline = json.load(handle)
    regressions = cold_baseline_regressions(results, baseline, probe_ms)
    assert not regressions, report_cold(results) + "\n" + "\n".join(
        regressions
    )


def test_cold_baseline_gate_fails_on_slow_or_missing_entries():
    results = [("C1", 0.010, 3), ("C2", 0.050, 3)]
    baseline = {"probe_ms": {"cold": 1.0},
                "cold": [{"query": "C1", "cold_ms": 10.0},
                         {"query": "C2", "cold_ms": 10.0}]}
    problems = cold_baseline_regressions(results, baseline, 1.0)
    assert [line.split(":")[0] for line in problems] == ["C2"]
    assert cold_baseline_regressions(results[:1], {}, 1.0) == [
        "C1: no cold p50 in the baseline"
    ]


def test_baseline_gates_compare_probe_scaled_p50s():
    # 30ms where the probe loop takes 2ms is 15ms where it takes 1ms:
    # within 2x of a 10ms baseline made there.  On a host as fast as
    # the baseline's, the same 30ms is 3x above it.
    baseline = {"probe_ms": {"cold": 1.0},
                "cold": [{"query": "C1", "cold_ms": 10.0}]}
    results = [("C1", 0.030, 3)]
    assert cold_baseline_regressions(results, baseline, 2.0) == []
    problems = cold_baseline_regressions(results, baseline, 1.0)
    assert [line.split(":")[0] for line in problems] == ["C1"]
    assert cold_baseline_regressions(
        results, {"cold": baseline["cold"]}, 1.0
    ) == ["C1: no cold probe time in the baseline"]


def test_terms_within_2x_of_baseline():
    results, probe_ms = probed(measure_terms, rounds=5)
    with open(DEFAULT_BASELINE) as handle:
        baseline = json.load(handle)
    regressions = terms_baseline_regressions(results, baseline, probe_ms)
    assert not regressions, report_terms(results) + "\n" + "\n".join(
        regressions
    )


def test_terms_baseline_gate_fails_on_slow_or_missing_entries():
    results = [("T1", 0.001), ("T2", 0.005)]
    baseline = {"probe_ms": {"terms": 1.0},
                "terms": [{"query": "T1", "terms_ms": 1.0},
                          {"query": "T2", "terms_ms": 1.0}]}
    problems = terms_baseline_regressions(results, baseline, 1.0)
    assert [line.split(":")[0] for line in problems] == ["T2"]
    assert terms_baseline_regressions(results[:1], {}, 1.0) == [
        "T1: no terms p50 in the baseline"
    ]


def test_shape_hit_prepare_at_most_half_of_cold_on_every_literal_query():
    results = measure_shape()
    assert len(results) == 6  # Q3, Q5, Q7-Q10
    assert worst_shape_ratio(results) <= SHAPE_HIT_LIMIT, (
        report_shape(results)
    )


def test_targeted_view_maintenance_beats_recompute_5x():
    maintenance = measure_view_maintenance(rounds=5)
    assert view_maintenance_speedup(maintenance) >= VIEW_TARGET, (
        report_view_maintenance(maintenance)
    )


def test_snapshot_reads_within_10pct_of_direct():
    results = measure_snapshot(rounds=9)
    assert snapshot_overhead(results) <= SNAPSHOT_OVERHEAD_LIMIT, (
        report_snapshot(results)
    )


def test_compile_time_flat_from_2k_to_20k_objects():
    results = measure_compile()
    assert compile_scaling(results) <= COMPILE_SCALING_LIMIT, (
        report_compile(results)
    )


def test_extent_and_purge_flat_from_2k_to_20k_objects():
    results = measure_maintenance()
    assert maintenance_flat(results), report_maintenance(results)


def test_cached_results_match_cold_results():
    session = _paper_session()
    for _name, text in PAPER_QUERIES:
        compiled = session.prepare(text, plan="typed")
        cached_rows = compiled.run().rows()
        session.pipeline.clear()
        assert cached_rows == session.query(text).rows(), text


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument(
        "--plan",
        default="typed",
        choices=("none", "greedy", "typed", "cost"),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as a JSON artifact",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="also report per-operator cardinality-estimation error "
        "(EXPLAIN ANALYZE over the S and J workloads)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=str(DEFAULT_BASELINE),
        help="artifact whose J-query hash p50s, V-query pointer p50s, "
        "C-query cold p50s and T-operation term p50s gate this run at "
        f"{JOIN_BASELINE_FACTOR:g}x, {POINTER_BASELINE_FACTOR:g}x, "
        f"{COLD_BASELINE_FACTOR:g}x and {TERMS_BASELINE_FACTOR:g}x "
        "(default: %(default)s)",
    )
    args = parser.parse_args()
    # Read before measuring: --json may overwrite the same file.
    if not Path(args.baseline).exists():
        print(f"no baseline at {args.baseline}: the join p50 gate needs one")
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    # Every timed group runs between probe samples; probes[section] is
    # the host's speed while it ran (see probed()).
    probes: Dict[str, float] = {}

    def timed(section: str, measure_group: Callable, *a, **kw):
        results, probes[section] = probed(measure_group, *a, **kw)
        return results

    results = timed("cache", measure, plan=args.plan, rounds=args.rounds)
    shape = timed("shape", measure_shape, plan=args.plan)
    selective = timed("selective", measure_selective, rounds=args.rounds)
    joins = timed("joins", measure_joins, rounds=min(args.rounds, 5))
    pointer = timed("pointer", measure_pointer, rounds=min(args.rounds, 7))
    cold = timed("cold", measure_cold, rounds=args.rounds)
    terms = timed("terms", measure_terms, rounds=args.rounds)
    maintenance = timed(
        "view_maintenance", measure_view_maintenance,
        rounds=min(args.rounds, 5),
    )
    snapshot = timed("snapshot", measure_snapshot, rounds=args.rounds)
    compiled = timed("compile", measure_compile)
    upkeep = timed("maintenance", measure_maintenance)
    estimation = measure_estimation() if args.analyze else None
    print(report(results))
    print()
    print(report_shape(shape))
    print()
    print(report_selective(selective))
    print()
    print(report_joins(joins))
    regressions = join_baseline_regressions(
        joins, baseline, probes["joins"]
    )
    for line in regressions:
        print(f"REGRESSION vs {args.baseline}: {line}")
    if not regressions:
        print(
            f"join hash p50s within {JOIN_BASELINE_FACTOR:g}x of "
            f"{args.baseline}"
        )
    print()
    print(report_pointer(pointer))
    pointer_regressions = pointer_baseline_regressions(
        pointer, baseline, probes["pointer"]
    )
    for line in pointer_regressions:
        print(f"REGRESSION vs {args.baseline}: {line}")
    if not pointer_regressions:
        print(
            f"pointer p50s within {POINTER_BASELINE_FACTOR:g}x of "
            f"{args.baseline}"
        )
    print()
    print(report_cold(cold))
    cold_regressions = cold_baseline_regressions(
        cold, baseline, probes["cold"]
    )
    for line in cold_regressions:
        print(f"REGRESSION vs {args.baseline}: {line}")
    if not cold_regressions:
        print(
            f"cold p50s within {COLD_BASELINE_FACTOR:g}x of {args.baseline}"
        )
    print()
    print(report_terms(terms))
    terms_regressions = terms_baseline_regressions(
        terms, baseline, probes["terms"]
    )
    for line in terms_regressions:
        print(f"REGRESSION vs {args.baseline}: {line}")
    if not terms_regressions:
        print(
            f"term p50s within {TERMS_BASELINE_FACTOR:g}x of {args.baseline}"
        )
    print()
    print(report_view_maintenance(maintenance))
    print()
    print(report_snapshot(snapshot))
    print()
    print(report_compile(compiled))
    print()
    print(report_maintenance(upkeep))
    if estimation is not None:
        print()
        print(report_estimation(estimation))
    print()
    print(
        "SpeedProbe loop time beside each group (ms): "
        + ", ".join(f"{name} {probe:.3f}" for name, probe in probes.items())
    )
    if args.json:
        payload = as_json(
            results, selective, joins, pointer, maintenance, snapshot,
            compiled, upkeep, shape, cold, terms, probes,
        )
        if estimation is not None:
            payload["analyze"] = estimation_as_json(estimation)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    ok = (
        best_speedup(results) >= SPEEDUP_TARGET
        and best_selective_speedup(selective) >= SELECTIVE_TARGET
        and hash_beats_nested(joins)
        and not regressions
        and worst_shape_ratio(shape) <= SHAPE_HIT_LIMIT
        and pointer_beats_hash(pointer)
        and not pointer_regressions
        and not cold_regressions
        and not terms_regressions
        and view_maintenance_speedup(maintenance) >= VIEW_TARGET
        and snapshot_overhead(snapshot) <= SNAPSHOT_OVERHEAD_LIMIT
        and compile_scaling(compiled) <= COMPILE_SCALING_LIMIT
        and maintenance_flat(upkeep)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
