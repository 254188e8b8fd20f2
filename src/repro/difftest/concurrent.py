"""Concurrent snapshot-isolation fuzzer: writer vs pinned readers.

The CI gate behind the MVCC layer's isolation claim::

    python -m repro.difftest.concurrent --seed 11 --ops 300 --readers 3

The harness seeds a small Person/Employee/Manager database, then runs one
*writer* thread applying a deterministic stream of mutations (object
churn, scalar and set-valued attribute writes, membership flips,
purges, relation inserts,
index toggles, and DDL: new subclasses, extra parents, signatures)
against the live :class:`~repro.datamodel.store.ObjectStore` while
``--readers`` *reader* threads repeatedly take snapshot sessions
(:meth:`Session.snapshot_view`), run queries from a fixed pool — two of
which read the schema — against their pinned version, and record
``(pinned ticket, query, rows)``.

The oracle is *serial replay*: mutation tickets advance deterministically
(one era per top-level mutator call, pins never advance them), so the
op stream is generated once against a scratch store, capturing the
ticket reached after each op.  A reader pinned at ticket ``t`` must see
exactly the state ``seed + ops[0..j]`` where ``j`` is the last op whose
ticket is ``<= t`` — the verification pass rebuilds that prefix in a
fresh single-threaded store, runs the same query, and compares rows
bit-for-bit.  Any disagreement is a broken snapshot (a torn read, a
leaked post-pin write or DDL, or a lost pre-image) and fails the process.
The replay side answers under ``plan="cost"`` with the stream's indexes
(``index_mode="manual"``), so its statement cache also carries compiled
statements and index probes across every index toggle.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.oid import Atom, Value

__all__ = [
    "ConcurrentStats",
    "QUERIES",
    "apply_op",
    "generate_ops",
    "run_fuzz",
    "seed_store",
    "main",
]

#: Fixed query pool readers draw from; every query is plan-independent
#: (rows compare equal whatever access path answers them).
QUERIES = (
    "SELECT X.Name FROM Person X WHERE X.Age > 40",
    "SELECT X FROM Employee X",
    "SELECT X.Name, X.Age FROM Person X WHERE X.Age < 100",
    "SELECT X.Name FROM Employee X WHERE X.Salary > 5000",
    "SELECT X FROM Person X WHERE X.Friend[Y] and Y.Age > 30",
    "SELECT #X WHERE #X subclassOf Person",
    "SELECT X.Name FROM Manager X",
    "SELECT X FROM Person X WHERE X.Age[40]",
    "SELECT X, Y FROM Person X WHERE X.Pals[Y] and Y.Age > 30",
)

#: An op is a plain tuple ``(kind, *payload)`` — picklable, printable,
#: and applied identically on the live and the replay side.
Op = Tuple


def seed_store(store) -> None:
    """Schema + starting population (identical on both sides)."""
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_class("Manager", ["Employee"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Person", "Friend", "Person")
    store.declare_signature("Person", "Pals", "Person", set_valued=True)
    store.declare_signature("Employee", "Salary", "Numeral")
    store.declare_relation("Likes", ["who", "what"])
    for i in range(8):
        name = f"s{i}"
        store.create_object(
            Atom(name), ["Employee" if i % 3 == 0 else "Person"]
        )
        store.set_attr(Atom(name), "Name", f"Seed {i}")
        store.set_attr(Atom(name), "Age", 25 + i * 5)
        if i % 3 == 0:
            store.set_attr(Atom(name), "Salary", 2000 * (i + 1))


def apply_op(store, op: Op) -> None:
    """Apply one mutation op; raises if the op is invalid on *store*."""
    kind = op[0]
    if kind == "create":
        _kind, name, classes = op
        store.create_object(Atom(name), list(classes))
    elif kind == "set":
        _kind, name, method, value = op
        store.set_attr(Atom(name), method, value)
    elif kind == "set_ref":
        _kind, name, method, target = op
        store.set_attr(Atom(name), method, Atom(target))
    elif kind == "set_pals":
        _kind, name, targets = op
        store.set_attr_set(Atom(name), "Pals", [Atom(t) for t in targets])
    elif kind == "add_pal":
        _kind, name, target = op
        store.add_to_set(Atom(name), "Pals", Atom(target))
    elif kind == "unset":
        _kind, name, method = op
        store.unset_attr(Atom(name), method)
    elif kind == "add_instance":
        _kind, name, cls = op
        store.add_instance(Atom(name), cls)
    elif kind == "remove_instance":
        _kind, name, cls = op
        store.remove_instance(Atom(name), cls)
    elif kind == "purge":
        store.purge_object(Atom(op[1]))
    elif kind == "insert_tuple":
        _kind, name, who, what = op
        store.insert_tuple(name, [Atom(who), Value(what)])
    elif kind == "declare_class":
        _kind, name, parents = op
        store.declare_class(name, list(parents))
    elif kind == "declare_signature":
        _kind, cls, method, result = op
        store.declare_signature(cls, method, result)
    elif kind in ("enable_index", "disable_index"):
        getattr(store, kind)(op[1])
    else:  # pragma: no cover - ops are built by generate_ops only
        raise ValueError(f"unknown fuzz op {kind!r}")


def generate_ops(seed: int, count: int) -> Tuple[List[Op], List[int]]:
    """Deterministic op stream plus the ticket reached after each op.

    Candidate ops are drawn from a seeded RNG and *applied to a scratch
    store* as they are generated: ops that raise (a purge of an already
    purged object, a double membership) are discarded, so the surviving
    stream is valid by construction and the scratch store's ticket after
    each op is exactly the ticket the live store will reach.
    """
    from repro.datamodel.store import ObjectStore

    rng = random.Random(seed)
    scratch = ObjectStore()
    seed_store(scratch)
    names = [f"s{i}" for i in range(8)]
    # DDL (re-)declares these with Person or Employee as the extra
    # parent, which can never close a cycle.
    subclasses = ["Manager"]
    fresh = 0
    ops: List[Op] = []
    tickets: List[int] = []
    while len(ops) < count:
        roll = rng.random()
        if roll < 0.18:
            name = f"w{fresh}"
            fresh += 1
            cls = rng.choice(["Person", "Person", "Employee", *subclasses])
            op: Op = ("create", name, (cls,))
            names.append(name)
        elif roll < 0.43:
            op = ("set", rng.choice(names), "Age", rng.randrange(18, 80))
        elif roll < 0.45:
            op = (
                rng.choice(["enable_index", "disable_index"]),
                rng.choice(["Age", "Name", "Salary"]),
            )
        elif roll < 0.58:
            op = ("set", rng.choice(names), "Name", f"N{rng.randrange(99)}")
        elif roll < 0.66:
            op = ("set", rng.choice(names), "Salary", rng.randrange(1, 20) * 1000)
        elif roll < 0.70:
            op = ("set_ref", rng.choice(names), "Friend", rng.choice(names))
        elif roll < 0.72:
            op = (
                "set_pals",
                rng.choice(names),
                tuple(rng.sample(names, rng.randrange(3))),
            )
        elif roll < 0.75:
            op = ("add_pal", rng.choice(names), rng.choice(names))
        elif roll < 0.78:
            op = (
                "unset",
                rng.choice(names),
                rng.choice(["Age", "Friend", "Pals"]),
            )
        elif roll < 0.84:
            op = ("add_instance", rng.choice(names), "Employee")
        elif roll < 0.89:
            op = ("remove_instance", rng.choice(names), "Employee")
        elif roll < 0.92:
            op = ("insert_tuple", "Likes", rng.choice(names), f"t{rng.randrange(40)}")
        elif roll < 0.94:
            op = ("purge", rng.choice(names))
        elif roll < 0.98:
            cls = rng.choice([*subclasses, f"D{len(subclasses)}"])
            if cls not in subclasses:
                subclasses.append(cls)
            parent = rng.choice(["Person", "Employee"])
            op = ("declare_class", cls, (parent,))
        else:
            method, result = rng.choice(
                [("Rank", "Numeral"), ("Badge", "String")]
            )
            op = ("declare_signature", rng.choice(subclasses), method, result)
        try:
            apply_op(scratch, op)
        except Exception:
            if op[0] == "create":
                names.pop()
            continue
        if op[0] == "purge":
            names.remove(op[1])
        ops.append(op)
        tickets.append(scratch.ticket)
    return ops, tickets


@dataclass
class ConcurrentStats:
    """Outcome of one fuzz run (mirrors the single-threaded FuzzStats)."""

    ops: int = 0
    readers: int = 0
    observations: int = 0
    snapshots: int = 0
    disagreements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        return (
            f"concurrent fuzz: {self.ops} op(s), {self.readers} reader(s), "
            f"{self.snapshots} snapshot(s), {self.observations} "
            f"observation(s), {len(self.disagreements)} disagreement(s) "
            f"[{verdict}]"
        )


def _rows(session, source: str, plan: str = "none") -> List[str]:
    return sorted(
        repr(row) for row in session.query(source, plan=plan).rows()
    )


def run_fuzz(
    seed: int = 11,
    ops: int = 300,
    readers: int = 3,
    queries_per_reader: int = 10,
) -> ConcurrentStats:
    """One full fuzz round: concurrent run, then serial verification."""
    from repro.datamodel.store import ObjectStore
    from repro.xsql.session import Session

    stream, tickets = generate_ops(seed, ops)

    live = ObjectStore()
    seed_store(live)
    base = Session(live)
    stats = ConcurrentStats(ops=len(stream), readers=readers)

    # (pinned ticket, query source, rows seen through the snapshot)
    observations: List[Tuple[int, str, List[str]]] = []
    obs_lock = threading.Lock()
    writer_done = threading.Event()
    errors: List[BaseException] = []

    def writer() -> None:
        try:
            for op in stream:
                apply_op(live, op)
        except BaseException as exc:  # pragma: no cover - fuzz guard
            errors.append(exc)
        finally:
            writer_done.set()

    def reader(index: int) -> None:
        rng = random.Random(seed * 1009 + index)
        try:
            done = 0
            while done < queries_per_reader:
                with base.snapshot_view() as snap:
                    source = rng.choice(QUERIES)
                    seen = _rows(snap, source)
                    # Read twice through the same pin: the snapshot
                    # itself must be stable while the writer commits.
                    again = _rows(snap, source)
                    with obs_lock:
                        stats.snapshots += 1
                        if seen != again:
                            stats.disagreements.append(
                                f"unstable snapshot at ticket "
                                f"{snap.ticket}: {source}"
                            )
                        observations.append((snap.ticket, source, seen))
                done += 1
                if writer_done.is_set() and done >= queries_per_reader:
                    break
        except BaseException as exc:  # pragma: no cover - fuzz guard
            errors.append(exc)

    threads = [threading.Thread(target=writer, name="fuzz-writer")]
    threads += [
        threading.Thread(target=reader, args=(i,), name=f"fuzz-reader-{i}")
        for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    base.close()
    if errors:
        stats.disagreements.append(f"thread raised: {errors[0]!r}")
        return stats

    # Serial replay oracle: walk observations in ticket order over one
    # incrementally advanced replay store.
    observations.sort(key=lambda entry: entry[0])
    replay = ObjectStore()
    seed_store(replay)
    oracle = Session(replay)
    oracle.index_mode = "manual"
    applied = 0
    for pinned, source, seen in observations:
        while applied < len(stream) and tickets[applied] <= pinned:
            apply_op(replay, stream[applied])
            applied += 1
        want = _rows(oracle, source, plan="cost")
        if seen != want:
            stats.disagreements.append(
                f"ticket {pinned}: {source}\n"
                f"    snapshot saw {seen!r}\n"
                f"    serial replay {want!r}"
            )
        stats.observations += 1
    oracle.close()
    return stats


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.difftest.concurrent",
        description="concurrent snapshot-isolation fuzzer",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--ops", type=int, default=300,
        help="writer mutations per round (default 300)",
    )
    parser.add_argument(
        "--readers", type=int, default=3,
        help="concurrent snapshot readers (default 3)",
    )
    parser.add_argument(
        "--queries", type=int, default=10,
        help="queries each reader runs (default 10)",
    )
    parser.add_argument(
        "--rounds", type=int, default=1,
        help="independent rounds with derived seeds (default 1)",
    )
    args = parser.parse_args(argv)

    failed = False
    for round_index in range(args.rounds):
        stats = run_fuzz(
            seed=args.seed + round_index,
            ops=args.ops,
            readers=args.readers,
            queries_per_reader=args.queries,
        )
        print(f"round {round_index} (seed {args.seed + round_index}): "
              f"{stats.summary()}")
        if not stats.ok:
            for line in stats.disagreements:
                print(f"  {line}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
