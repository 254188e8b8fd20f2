"""The three workloads: ``analytic``, ``adhoc`` and ``oltp``.

Each workload builds its inputs from the seed in ``__init__`` (population
model, query and update texts, expected row digests — none of it timed),
then exposes:

* ``setup()`` — ingest through the public store/``Session`` API plus a
  warm-up (first compiles, planner index auto-enables) that the timed
  loop does not include; the caller times the whole as ``setup_s``;
* ``cycles()`` — an endless iterator of op lists.  The timed loop only
  stops between cycles, so on ``oltp`` the write-ahead log at close
  always holds exactly one cycle of writes;
* ``do(op, rec)`` — run one op through the public API, time it, check
  its output and record the outcome;
* ``finish(rec, metrics, probe)`` — end-of-run work the workload's own
  traffic needs (``oltp``: close and reopen).

One closed-loop client, one thread.  Every read passes ``plan="cost"``
and leaves every other execution option at the session default.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import shutil
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from population import CITIES, CLASSES, Model, Zipf, generate, load
from population import superclasses_of
from measure import Metric, Recorder, SpeedProbe, latency_metrics, timing

perf = time.perf_counter


def lit(value: object) -> str:
    """How the system prints a literal: strings quoted, numbers bare."""
    return f"'{value}'" if isinstance(value, str) else str(value)


def digest(rows: Iterable[Sequence[str]]) -> str:
    """Order-independent digest of a set of rows of printed values."""
    lines = sorted({"|".join(row) for row in rows})
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def result_digest(result) -> str:
    return digest(tuple(str(value) for value in row) for row in result.rows())


class Workload:
    """Shared op bookkeeping; subclasses define the traffic."""

    name = ""
    n_objects = 0

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.model: Model = generate(self.n_objects, seed)
        self.session = None
        self.tracer = None
        #: The compiled query the last op ran, if any (for the trace).
        self.last_compiled = None
        #: Set by the runner while setup is timed: samples host speed.
        self.probe: Optional[SpeedProbe] = None

    def _tick(self) -> None:
        if self.probe is not None:
            self.probe.tick()

    # The public call every op goes through, traced when a tracer is on.
    def _call(self, span: str, func, *args, **kwargs):
        if self.tracer is None:
            return func(*args, **kwargs)
        with self.tracer.span(span):
            return func(*args, **kwargs)

    def _checked(
        self, rec: Recorder, kind: str, expected: str, call
    ) -> None:
        """Time *call*, compare its rows to *expected*, record it."""
        started = perf()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, not fatal
            rec.raised(kind, exc)
            return
        elapsed = perf() - started
        if result_digest(result) == expected:
            rec.ok(kind, started, elapsed)
        else:
            rec.wrong_result(kind)

    def _prepared_read(self, rec: Recorder, text: str, expected: str) -> None:
        """A cost-planned read as ``prepare`` then ``run``, each a span."""
        session = self.session

        def call():
            compiled = self._call(
                "prepare", session.prepare, text, plan="cost"
            )
            self.last_compiled = compiled
            return self._call("run", compiled.run)

        self._checked(rec, "read", expected, call)

    def teardown(self) -> None:
        self.session = None
        gc.collect()

    def finish(
        self, rec: Recorder, metrics: Dict[str, Metric], probe: SpeedProbe
    ) -> None:
        """End-of-run work of the workload's own traffic (default none)."""

    def layer_extras(self, batches: int) -> Dict[str, Metric]:
        """Per-layer numbers only this workload's traffic produces."""
        return {}

    def facts(self) -> Dict[str, object]:
        """The input sizes a reader needs to interpret the numbers."""
        return {"objects": len(self.model)}

    def snapshot_stats(self) -> List[Dict]:
        """``stats()`` of the snapshot sessions the traced window closed."""
        return []


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------


class Analytic(Workload):
    """Seven prepared cost-planned queries, round-robin, no writes.

    Execution-bound: the statement cache always hits (7 entries of 128)
    and nothing invalidates the path caches, so operator, ``Project``
    and estimate work shows here while compile and storage work do not.
    """

    name = "analytic"
    n_objects = 2_000

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.queries = analytic_queries(self.model, random.Random(seed + 1))

    def setup(self) -> None:
        from repro import Session

        session = Session()
        load(session.store, self.model, self._tick)
        # Warm-up: first compiles, index auto-enables, path caches.
        for _ in range(2):
            for text, _expected in self.queries:
                self._tick()
                session.prepare(text, plan="cost").run()
        self.session = session

    def cycles(self) -> Iterator[List[Tuple[str, str]]]:
        while True:
            yield self.queries

    def do(self, op: Tuple[str, str], rec: Recorder) -> None:
        self._prepared_read(rec, *op)


def analytic_queries(
    model: Model, rng: random.Random
) -> List[Tuple[str, str]]:
    """S2, P3, P4, P7, P11, A1 and J1 shapes with seeded constants."""
    get = model.get
    people, employees = model.people, model.employees

    def fam(oid: str) -> List[str]:
        return get(oid, "FamMembers", [])

    # Constants are seeded but chosen so every seed does similar work:
    # the S2 anchor lives at the fifth most popular address, and the
    # thresholds come from narrow ranges.
    residents: Dict[str, List[str]] = {}
    for oid in people:
        residents.setdefault(get(oid, "Residence"), []).append(oid)
    ranked = sorted(residents, key=lambda a: (-len(residents[a]), a))
    home = ranked[4]
    anchor = rng.choice(residents[home])
    city = rng.choice(CITIES)
    age = rng.randint(18, 22)
    cap = rng.randint(33_000, 37_000)
    by_salary: Dict[int, List[str]] = {}
    for oid in employees:
        by_salary.setdefault(get(oid, "Salary"), []).append(oid)
    return [
        (
            "SELECT X, Y FROM Person X, Person Y WHERE "
            f"X.Name['{get(anchor, 'Name')}'] and X.Residence[R] "
            "and Y.Residence[R]",
            digest(
                (anchor, y) for y in people if get(y, "Residence") == home
            ),
        ),
        (
            f"SELECT Y FROM Person X WHERE X.Residence[Y].City['{city}']",
            digest(
                (get(p, "Residence"),)
                for p in people
                if get(get(p, "Residence"), "City") == city
            ),
        ),
        (
            "SELECT Z FROM Employee X "
            "WHERE X.OwnedVehicles.Drivetrain.Engine[Z]",
            digest(
                (get(get(v, "Drivetrain"), "Engine"),)
                for e in employees
                for v in get(e, "OwnedVehicles", [])
            ),
        ),
        (
            f"SELECT X FROM Employee X WHERE X.FamMembers.Age some> {age}",
            digest(
                (e,) for e in employees
                if any(get(f, "Age") > age for f in fam(e))
            ),
        ),
        (
            "SELECT X.Name, W.Salary FROM Company X "
            "WHERE X.Divisions.Employees[W]",
            digest(
                (lit(get(c, "Name")), lit(get(w, "Salary")))
                for c in model.companies
                for d in get(c, "Divisions")
                for w in get(d, "Employees", [])
            ),
        ),
        (
            "SELECT X FROM Employee X WHERE count(X.FamMembers) > 2 "
            f"and X.Salary < {cap}",
            digest(
                (e,) for e in employees
                if len(fam(e)) > 2 and get(e, "Salary") < cap
            ),
        ),
        (
            "SELECT X, Y FROM Employee X, Employee Y "
            "WHERE X.Salary =some Y.Salary",
            digest(
                (x, y)
                for group in by_salary.values()
                for x in group
                for y in group
            ),
        ),
    ]


# ----------------------------------------------------------------------
# adhoc
# ----------------------------------------------------------------------


class Adhoc(Workload):
    """New query texts on every request, Zipf-drawn from a large pool.

    Compile-bound with cheap index-probe execution, the mirror of
    ``analytic``: the pool (about 4,000 texts) is far larger than the
    128-entry statement cache, which holds only its head.
    """

    name = "adhoc"
    n_objects = 10_000
    pool_size = 4_000
    zipf_s = 0.7
    cache_entries = 128

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed + 1)
        self.pool = adhoc_pool(self.model, rng, self.pool_size)
        self.stream_seed = seed + 2

    def setup(self) -> None:
        from repro import Session

        session = Session()
        load(session.store, self.model, self._tick)
        # Warm-up: every template once (first compiles and index
        # auto-enables), then the pool's head, hottest last, so the
        # statement cache starts the timed phase in its steady state.
        seen = set()
        warm = []
        for template, text, _expected in self.pool:
            if template not in seen:
                seen.add(template)
                warm.append(text)
        head = self.pool[: self.cache_entries]
        warm += [text for _template, text, _expected in reversed(head)]
        for text in warm:
            self._tick()
            session.query(text, plan="cost")
        self.session = session

    def facts(self) -> Dict[str, object]:
        return dict(
            super().facts(), pool_texts=len(self.pool),
            zipf_s=self.zipf_s, statement_cache_entries=self.cache_entries,
        )

    def cycles(self) -> Iterator[List[Tuple[str, str]]]:
        rng = random.Random(self.stream_seed)
        ranks = Zipf(range(len(self.pool)), self.zipf_s, rng)
        while True:
            yield [self.pool[ranks.pick()][1:] for _ in range(20)]

    def do(self, op: Tuple[str, str], rec: Recorder) -> None:
        text, expected = op
        if self.tracer is not None:
            # Session.query is exactly prepare + run; split, the two
            # halves get their own spans and the compiled query.
            self._prepared_read(rec, text, expected)
            return
        session = self.session
        self._checked(
            rec, "read", expected, lambda: session.query(text, plan="cost")
        )


def adhoc_pool(
    model: Model, rng: random.Random, size: int
) -> List[Tuple[str, str, str]]:
    """``(template, text, expected digest)`` by rank, distinct texts.

    Point lookups with seeded constants, one-hop path predicates, and
    §2 schema browsing (``subclassOf`` and a method variable).
    """
    get = model.get
    people = model.people
    classes = [cls for cls, _supers in CLASSES]
    by_salary: Dict[int, List[str]] = {}
    for oid in model.employees:
        by_salary.setdefault(get(oid, "Salary"), []).append(oid)
    by_model_color: Dict[Tuple[str, str], List[str]] = {}
    for oid in model.vehicles:
        key = (get(oid, "Model"), get(oid, "Color"))
        by_model_color.setdefault(key, []).append(oid)

    def person_lookup() -> Tuple[str, str, str]:
        p = rng.choice(people)
        return (
            "lookup",
            f"SELECT X FROM Person X WHERE X.Name['{get(p, 'Name')}']",
            digest([(p,)]),
        )

    def person_age() -> Tuple[str, str, str]:
        p = rng.choice(people)
        return (
            "age",
            f"SELECT X.Age FROM Person X WHERE X.Name['{get(p, 'Name')}']",
            digest([(lit(get(p, "Age")),)]),
        )

    def one_hop() -> Tuple[str, str, str]:
        p = rng.choice(people)
        home = get(p, "Residence")
        return (
            "one_hop",
            "SELECT Y.City FROM Person X WHERE "
            f"X.Name['{get(p, 'Name')}'] and X.Residence[Y]",
            digest([(lit(get(home, "City")),)]),
        )

    def method_variable() -> Tuple[str, str, str]:
        p = rng.choice(people)
        home_city = get(get(p, "Residence"), "City")
        city = home_city if rng.random() < 0.5 else rng.choice(CITIES)
        return (
            "method_variable",
            "SELECT Y FROM Person X WHERE "
            f"X.Name['{get(p, 'Name')}'] and X.Y.City['{city}']",
            digest([("Residence",)] if city == home_city else []),
        )

    def salary_lookup() -> Tuple[str, str, str]:
        salary = get(rng.choice(model.employees), "Salary")
        return (
            "salary",
            f"SELECT X.Name FROM Employee X WHERE X.Salary[{salary}]",
            digest((lit(get(e, "Name")),) for e in by_salary[salary]),
        )

    def model_color() -> Tuple[str, str, str]:
        key = (get(rng.choice(model.vehicles), "Model"),
               get(rng.choice(model.vehicles), "Color"))
        return (
            "model_color",
            f"SELECT X FROM Automobile X WHERE X.Model['{key[0]}'] "
            f"and X.Color['{key[1]}']",
            digest((v,) for v in by_model_color.get(key, [])),
        )

    def superclasses(cls: str) -> Tuple[str, str, str]:
        return (
            "superclasses",
            f"SELECT #X WHERE {cls} subclassOf #X",
            digest((c,) for c in superclasses_of(cls) + ["Object"]),
        )

    def subclasses(cls: str) -> Tuple[str, str, str]:
        return (
            "subclasses",
            f"SELECT #X WHERE #X subclassOf {cls}",
            digest((c,) for c in classes if cls in superclasses_of(c)),
        )

    # Every stretch of ranks gets the same template mix (smooth weighted
    # round-robin), so the cached head and the uncached tail hold the
    # same kinds of query whatever the seed.  The 26 class-hierarchy
    # texts are spread evenly over the ranks.
    makers = [(person_lookup, 22), (person_age, 22), (one_hop, 22),
              (method_variable, 16), (salary_lookup, 9), (model_color, 9)]
    hierarchy = [superclasses(cls) for cls in classes]
    hierarchy += [subclasses(cls) for cls in classes]
    rng.shuffle(hierarchy)
    spacing = size // len(hierarchy)
    credit = [0] * len(makers)
    total = sum(weight for _maker, weight in makers)
    seen = set()
    pool: List[Tuple[str, str, str]] = []
    for rank in range(size):
        if rank % spacing == spacing // 2 and hierarchy:
            entry = hierarchy.pop()
        else:
            for index, (_maker, weight) in enumerate(makers):
                credit[index] += weight
            pick = max(range(len(makers)), key=credit.__getitem__)
            credit[pick] -= total
            entry = makers[pick][0]()
            while entry[1] in seen:
                entry = makers[pick][0]()
        seen.add(entry[1])
        pool.append(entry)
    return pool


# ----------------------------------------------------------------------
# oltp
# ----------------------------------------------------------------------

VIEW_DDL = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, EmpName = String, Salary = Numeral
SELECT CompName = X.Name, EmpName = W.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions.Employees[W]
"""


class Oltp(Workload):
    """Point updates beside point, view and snapshot reads, on the WAL.

    The only workload with writes: a read-side gain that relies on
    caches writes invalidate, or that costs the write path, shows here.
    One cycle is one checkpoint interval of :attr:`writes_per_cycle`
    point ``UPDATE``s, each followed by one read; a ``SnapshotSession``
    is pinned across the middle half of the cycle's writes and scanned
    twice while they commit.  Flush policy ``sync="checkpoint"``: every
    commit is flushed, fsync happens at checkpoints.
    """

    name = "oltp"
    n_objects = 2_000
    hot_keys = 32
    writes_per_cycle = 20
    snapshot_floor = 300_000
    reopens = 3

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed + 1)
        self.hot = sorted(rng.sample(self.model.employees, self.hot_keys))
        self.template = self._template(rng)
        self.setups = 0
        self.reopened_wal_bytes: Optional[int] = None

    def _template(self, rng: random.Random) -> List[Tuple]:
        """The op sequence every cycle repeats (keys seeded, values vary).

        The mix is the same for every seed; only the keys differ.
        """
        n = self.writes_per_cycle
        pin_at, release_at = n // 4, 3 * n // 4
        follows = itertools.cycle(("ryw", "view", "ryw", "point"))
        snapshot_slots = itertools.cycle((False, True))
        ops: List[Tuple] = [("checkpoint",)]
        for i in range(n):
            if i == pin_at:
                ops.append(("pin",))
            if i == release_at:
                ops.append(("release",))
            key = rng.choice(self.hot)
            ops.append(("write", key, i))
            in_window = pin_at <= i < release_at and i % 2 == 0
            if in_window and next(snapshot_slots):
                # A scan answered at the pinned version.  A cost-planned
                # point lookup on a snapshot raises SnapshotReadOnlyError
                # (the planner enables an index on the read-only view),
                # so the other slots get live reads until that is fixed;
                # see test_snapshot_point_lookup in tests/.
                ops.append(("snap_scan",))
            else:
                follow = next(follows)
                target = key if follow != "point" else rng.choice(self.hot)
                ops.append((follow, target))
        return ops

    # -- texts ------------------------------------------------------------

    def _name(self, key: str) -> str:
        return self.model.get(key, "Name")

    def point_text(self, key: str) -> str:
        return (
            "SELECT X.Salary FROM Employee X "
            f"WHERE X.Name['{self._name(key)}']"
        )

    def view_text(self, key: str) -> str:
        return (
            "SELECT V.Salary FROM CompSalaries V "
            f"WHERE V.EmpName['{self._name(key)}']"
        )

    def scan_text(self) -> str:
        return (
            "SELECT X.Name, X.Salary FROM Employee X "
            f"WHERE X.Salary > {self.snapshot_floor}"
        )

    def _scan_digest(self, salaries: Dict[str, int]) -> str:
        return digest(
            (lit(self._name(e)), lit(s))
            for e, s in salaries.items()
            if s > self.snapshot_floor
        )

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> None:
        from repro import Session

        self.setups += 1
        self.path = os.path.join(self.workdir, f"db{self.setups}")
        shutil.rmtree(self.path, ignore_errors=True)
        session = Session.open(self.path, sync="checkpoint")
        load(session.store, self.model, self._tick)
        self._tick()
        session.execute(VIEW_DDL)
        self.salary = {
            e: self.model.get(e, "Salary") for e in self.model.employees
        }
        self.reads, self.view_reads = {}, {}
        for key in self.hot:
            self._tick()
            self.reads[key] = session.prepare(
                self.point_text(key), plan="cost"
            )
            self.view_reads[key] = session.prepare(
                self.view_text(key), plan="cost"
            )
        # Warm-up: run every prepared read once (index auto-enables) and
        # one update of each hot key to its current value.
        for compiled in itertools.chain(
            self.reads.values(), self.view_reads.values()
        ):
            self._tick()
            compiled.run()
        for key in self.hot:
            self._tick()
            session.execute(self._update_text(key, self.salary[key]))
        session.checkpoint()
        self.session = session
        self.wal_mark = self._wal_now()
        self.snap = None
        self.cycle = 0
        self.writes = 0
        self.wal_bytes = 0
        self.checkpoints: List[Tuple[float, float]] = []
        self.chain_peak = 0
        self.closed_snapshot_stats: List[Dict] = []

    def teardown(self) -> None:
        if self.snap is not None:
            self.snap.close()
            self.snap = None
        if self.session is not None:
            self.session.close()
        super().teardown()

    def facts(self) -> Dict[str, object]:
        return dict(
            super().facts(), hot_keys=self.hot_keys,
            writes_per_cycle=self.writes_per_cycle, sync="checkpoint",
            reopened_wal_bytes=self.reopened_wal_bytes,
        )

    def cycles(self) -> Iterator[List[Tuple]]:
        while True:
            self.cycle += 1
            yield self.template

    def _update_text(self, key: str, value: int) -> str:
        return f"UPDATE CLASS Employee SET {key}.Salary = {value}"

    def _value(self, position: int) -> int:
        step = (self.cycle * 7919 + position * 104_729 + self.seed) % 305_000
        return 15_000 + step

    def _wal_now(self) -> int:
        return self.session.storage_status()["wal_bytes"]

    def do(self, op: Tuple, rec: Recorder) -> None:
        kind = op[0]
        session = self.session
        if kind == "checkpoint":
            self.wal_bytes += self._wal_now() - self.wal_mark
            started = perf()
            self._call("checkpoint", session.checkpoint)
            self.checkpoints.append((started, perf() - started))
            self.wal_mark = self._wal_now()
        elif kind == "pin":
            self.snap = self._call("snapshot_view", session.snapshot_view)
            self.pinned_scan = self._scan_digest(self.salary)
        elif kind == "release":
            status = session.version_status()
            entries = sum(
                value for key, value in status.items()
                if key.endswith("chain_entries")
            )
            self.chain_peak = max(self.chain_peak, entries)
            if self.tracer is not None:
                self.closed_snapshot_stats.append(self.snap.stats())
            self._call("snapshot.close", self.snap.close)
            self.snap = None
        elif kind == "write":
            _, key, position = op
            value = self._value(position)
            text = self._update_text(key, value)
            started = perf()
            try:
                self._call("execute", session.execute, text)
            except Exception as exc:
                rec.raised("write", exc)
                return
            rec.ok("write", started, perf() - started)
            self.salary[key] = value
            self.writes += 1
        elif kind in ("ryw", "point"):
            key = op[1]
            compiled = self.reads[key]
            self.last_compiled = compiled
            self._checked(
                rec, "read", digest([(lit(self.salary[key]),)]),
                lambda: self._call("run", compiled.run),
            )
        elif kind == "view":
            key = op[1]
            compiled = self.view_reads[key]
            self.last_compiled = compiled
            self._checked(
                rec, "view", digest([(lit(self.salary[key]),)]),
                lambda: self._call("run", compiled.run),
            )
        elif kind == "snap_scan":
            snap = self.snap
            self._checked(
                rec, "snap", self.pinned_scan,
                lambda: self._call(
                    "query", snap.query, self.scan_text(), plan="cost"
                ),
            )
        else:
            raise ValueError(f"unknown oltp op {op!r}")

    def finish(
        self, rec: Recorder, metrics: Dict[str, Metric], probe: SpeedProbe
    ) -> None:
        """Close, reopen :attr:`reopens` times, check every write survived.

        The loop stops between cycles, so the closed log holds exactly
        one cycle of writes past the last checkpoint.
        """
        from repro import Session

        wal_size = self._wal_now()
        self.wal_bytes += wal_size - self.wal_mark
        self.session.close()
        self._release_session()
        opens = []
        probe.sample(SpeedProbe.WINDOW)
        for attempt in range(self.reopens):
            started = perf()
            session = Session.open(self.path, sync="checkpoint")
            opens.append((started, perf() - started))
            probe.sample(SpeedProbe.WINDOW)
            if attempt == self.reopens - 1:
                self._verify_recovered(session, rec)
            session.close()
            del session
            gc.collect()
        metrics.update(latency_metrics(rec, "write", "write", probe))
        metrics.update(
            latency_metrics(rec, "view", "view_read", probe, p95=False)
        )
        metrics.update(
            latency_metrics(rec, "snap", "snapshot_read", probe, p95=False)
        )
        metrics["checkpoint_ms"] = timing(self.checkpoints, probe, 0.5, "ms")
        metrics["recovery_s"] = timing(opens, probe, 0.5, "s")
        metrics["wal_bytes_per_write"] = Metric(
            self.wal_bytes / max(self.writes, 1), "B", self.writes
        )
        self.reopened_wal_bytes = wal_size

    def layer_extras(self, batches: int) -> Dict[str, Metric]:
        """WAL, checkpoint, MVCC and traced close/recover/adopt numbers."""
        from repro import Session
        from repro.storage import LogStructuredEngine

        self.wal_bytes += self._wal_now() - self.wal_mark
        image = os.path.getsize(os.path.join(self.path, "checkpoint.snap"))
        self._call("session.close", self.session.close)
        self._release_session()
        started = perf()
        engine = self._call(
            "recovery.replay", LogStructuredEngine, self.path,
            sync="checkpoint",
        )
        replay_s = perf() - started
        started = perf()
        session = self._call("open", Session.open, engine=engine)
        adopt_s = perf() - started
        session.close()
        self._release_session()
        replayed = engine.recovery.replayed_batches
        return {
            "wal.bytes_per_batch": Metric(
                self.wal_bytes / max(batches, 1), "B", batches
            ),
            "checkpoint.image_bytes": Metric(image, "B", 1),
            "recovery.replay_s": Metric(replay_s, "s", 1),
            "recovery.adopt_s": Metric(adopt_s, "s", 1),
            "recovery.records_replayed": Metric(replayed, "count", 1),
            "mvcc.chain_entries_peak": Metric(
                self.chain_peak, "count", self.cycle
            ),
        }

    def snapshot_stats(self) -> List[Dict]:
        return self.closed_snapshot_stats

    def _release_session(self) -> None:
        """Drop the closed session and every handle into it."""
        self.session = None
        self.reads, self.view_reads = {}, {}
        gc.collect()

    def _verify_recovered(self, session, rec: Recorder) -> None:
        """Every acknowledged write must be readable after reopening."""
        expected = digest(
            (lit(self._name(e)), lit(s)) for e, s in self.salary.items()
        )
        self._checked(
            rec, "recovery", expected,
            lambda: session.query(
                "SELECT X.Name, X.Salary FROM Employee X", plan="cost"
            ),
        )


WORKLOADS = {cls.name: cls for cls in (Analytic, Adhoc, Oltp)}
