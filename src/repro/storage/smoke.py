"""Crash-recovery smoke test: kill the WAL mid-record, recover, compare.

The CI gate behind the storage engine's durability claim::

    python -m repro.storage.smoke --batches 24 --out recovery-smoke.log

The harness builds a WAL-backed session and commits ``--batches``
journal batches of deterministic mutations (schema DDL, object churn,
attribute updates, purges, index toggles), snapshotting the expected
store state after every commit.  It then simulates crashes by copying
the database directory and truncating the WAL at several byte offsets —
including mid-record — and for each crash point recovers the engine,
decodes the store, and asserts the survivor equals **exactly** the
state after some prefix of the committed batches (never a torn
half-batch).  A second database commits the same batches with three
checkpoints in between and is copied while still open — once with
records logged since a checkpoint, once right after one, and that copy
again with its WAL header cut short; each must recover every committed
batch.  The checkpointed database is then recovered and grown: half
again as many batches, committed across one close and reopen, then a
checkpoint and a crash; recovery must reach the last of them, so the
records a recovery rebuilt from an image and from the log are written
into an image and read back.  The deepest survivor also answers a small
query battery against a never-crashed reference session.

Every crash point appends its recovery report to ``--out``; the process
exits non-zero on the first divergence.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from typing import List, Optional, Tuple

from repro.oid import Atom
from repro.storage.wal import WAL_HEADER_SIZE

QUERIES = (
    "SELECT X.Name FROM Person X WHERE X.Age > 40",
    "SELECT X FROM Employee X",
    "SELECT X.Name, X.Age FROM Person X WHERE X.Age < 100",
)


#: A store's codec image: every ``(key, value)`` pair in key order.
Image = List[Tuple[bytes, bytes]]


def canonical(store) -> Image:
    """A store's fingerprint: its complete codec image, in key order.

    Keys and value bodies are canonical (sorted components, sorted JSON),
    so two stores holding the same logical state encode to the same
    image regardless of the order their facts were written in.
    """
    from repro.storage import MemoryEngine, encode_store

    image = MemoryEngine()
    encode_store(store, image)
    return list(image.range_scan())


def apply_batch(store, i: int) -> None:
    """Deterministic mutation batch *i* (same on crash and reference side)."""
    if i == 1:
        store.declare_class("Person")
        store.declare_class("Employee", ["Person"])
        store.declare_signature("Person", "Name", "String")
        store.declare_signature("Person", "Age", "Numeral")
        store.declare_signature("Employee", "Salary", "Numeral")
        return
    obj = store.create_object(
        Atom(f"p{i}"), ["Employee" if i % 3 == 0 else "Person"]
    )
    store.set_attr(obj, "Name", f"Person {i}")
    store.set_attr(obj, "Age", 20 + (i * 7) % 60)
    if i % 3 == 0:
        store.set_attr(obj, "Salary", 1000 * i)
    if i % 4 == 0:
        store.set_attr(Atom(f"p{i - 1}"), "Age", 99)
    if i % 6 == 0:
        store.purge_object(Atom(f"p{i - 2}"))
    if i % 7 == 0:
        if store.is_indexed("Age"):
            store.disable_index("Age")
        else:
            store.enable_index("Age")


def _query_rows(session, source: str):
    return sorted(repr(row) for row in session.query(source).rows())


def expected_states(batches: int) -> List[Image]:
    """The canonical state a database holds after each LSN.

    LSN 1 is the seed batch of the (empty) fresh session, so
    ``states[k]`` carries mutation batches ``1..k-1``.
    """
    from repro.datamodel.store import ObjectStore

    reference = ObjectStore()
    states = [canonical(ObjectStore()), canonical(reference)]
    for i in range(1, batches + 1):
        apply_batch(reference, i)
        states.append(canonical(reference))
    return states


def build_database(root: str, batches: int) -> None:
    """Write *batches* journal batches into a fresh database."""
    from repro.xsql.session import Session

    session = Session.open(root, sync="never")
    commit(session, range(1, batches + 1))
    session.close()


def commit(session, numbers) -> None:
    """Commit mutation batch *i* for each *i* of *numbers*."""
    journal = session.store.journal
    for i in numbers:
        with journal.batch():
            apply_batch(session.store, i)


def crash_and_recover(
    root: str, scratch: str, cut: int, states: List[Image], log: List[str]
) -> Optional[object]:
    """Copy the db, truncate its WAL at *cut*, recover, check the prefix."""
    victim = os.path.join(scratch, f"crash-at-{cut}")
    shutil.copytree(root, victim)
    truncate_wal(victim, cut)
    return recover_and_check(
        victim, f"WAL truncated to {cut} byte(s)", states, log
    )


def truncate_wal(root: str, cut: int) -> None:
    with open(os.path.join(root, "wal.log"), "r+b") as handle:
        handle.truncate(cut)


def recover_and_check(
    victim: str, label: str, states: List[Image], log: List[str]
) -> Optional[object]:
    """Recover *victim*; its state must equal a committed prefix.

    Returns ``None`` on a divergence, else ``(lsn, store)`` for a
    survivor past the seed batch (``True`` for one at or before it).
    """
    from repro.storage import LogStructuredEngine, decode_store

    engine = LogStructuredEngine(victim, sync="never")
    try:
        recovered = decode_store(engine)
        lsn = engine.last_stamp().lsn
        log.append(f"crash point: {label}")
        for line in engine.recovery.lines():
            log.append(f"  {line}")
        if lsn >= len(states):
            log.append(f"  FAIL: recovered LSN {lsn} beyond committed history")
            return None
        if canonical(recovered) != states[lsn]:
            log.append(
                f"  FAIL: recovered state diverges from committed "
                f"prefix at LSN {lsn}"
            )
            return None
        log.append(
            f"  state == committed prefix after LSN {lsn}: OK"
        )
        return (lsn, recovered) if lsn >= 2 else True
    finally:
        engine.close()


def checkpointed_crashes(
    root: str, scratch: str, batches: int
) -> List[Tuple[str, str]]:
    """Commit the same batches with in-place checkpoints; crash images.

    Checkpoints after a third and two thirds of the batches fill both
    image slots; a third, after the last batch, overwrites the first
    slot in place.  A crash image is a copy of the database directory
    taken while it is open, so its log still holds the end marker and
    the pre-rewind records behind it.  Returns ``(label, directory)``
    pairs: a crash with records logged since the second checkpoint, and
    a crash right after the third.
    """
    from repro.xsql.session import Session

    session = Session.open(root, sync="checkpoint")
    crashes = []

    def crash(label: str) -> None:
        victim = os.path.join(scratch, f"crash-{len(crashes)}")
        shutil.copytree(root, victim)
        crashes.append((label, victim))

    for i in range(1, batches + 1):
        commit(session, [i])
        if i in (batches // 3, 2 * batches // 3):
            session.checkpoint()
    crash("records logged since the second checkpoint, then crash")
    session.checkpoint()
    crash("checkpoint then crash")
    session.close()
    return crashes


def resumed_crash(root: str, scratch: str, first: int, last: int) -> str:
    """Recover the closed, checkpointed database and grow it; crash.

    The first open loads the image, so every live key's record comes
    from the image; batches ``first..`` are committed and the database
    is closed and reopened, so the log replays records too; the rest up
    to *last* are committed, then a checkpoint writes all of those
    records into an image and the directory is copied while open.
    """
    from repro.xsql.session import Session

    middle = (first + last) // 2
    session = Session.open(root, sync="checkpoint")
    commit(session, range(first, middle + 1))
    session.close()
    session = Session.open(root, sync="checkpoint")
    commit(session, range(middle + 1, last + 1))
    session.checkpoint()
    victim = os.path.join(scratch, "crash-resumed")
    shutil.copytree(root, victim)
    session.close()
    return victim


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.smoke",
        description="WAL crash-recovery smoke test",
    )
    parser.add_argument(
        "--batches", type=int, default=24,
        help="journal batches to commit before crashing (default 24)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the recovery log here (default: stdout only)",
    )
    args = parser.parse_args(argv)

    from repro.xsql.session import Session

    scratch = tempfile.mkdtemp(prefix="xsql-storage-smoke-")
    log: List[str] = [f"storage crash-recovery smoke: {args.batches} batches"]
    failed = False
    deepest = None
    try:
        root = os.path.join(scratch, "db")
        build_database(root, args.batches)
        resumed = args.batches + max(2, args.batches // 2)
        states = expected_states(resumed)
        committed = states[: args.batches + 2]
        wal_size = os.path.getsize(os.path.join(root, "wal.log"))
        log.append(f"WAL size after {args.batches} batches: {wal_size} bytes")

        # Crash points: mid-record in the final frame, three interior
        # offsets (almost certainly mid-record), and one byte into the
        # first frame after an intact header.  Recovery must land on a
        # committed prefix every time.
        cuts = sorted(
            {
                max(WAL_HEADER_SIZE, wal_size - 3),
                wal_size * 3 // 4,
                wal_size // 2,
                wal_size // 4,
                WAL_HEADER_SIZE + 1,
            }
        )
        for cut in cuts:
            survivor = crash_and_recover(root, scratch, cut, committed, log)
            if survivor is None:
                failed = True
            elif survivor is not True:
                deepest = survivor

        # Crash points around in-place checkpoints (both image slots in
        # use, the log rewound but never closed), and the last one again
        # with its WAL header cut short: an empty log that continues the
        # newest image.
        checkpointed = os.path.join(scratch, "checkpointed")
        crashes = checkpointed_crashes(checkpointed, scratch, args.batches)
        label, victim = crashes[-1]
        shortened = victim + "-short-header"
        shutil.copytree(victim, shortened)
        truncate_wal(shortened, 9)
        crashes.append((f"{label}, WAL header cut to 9 byte(s)", shortened))
        checks = [(label, victim, committed) for label, victim in crashes]
        # Then recover the checkpointed database, grow it across a
        # reopen, checkpoint and crash: the image is written from records
        # that recovery rebuilt.
        checks.append(
            (
                f"recovered, batches {args.batches + 1}..{resumed} "
                "committed across a reopen, checkpoint then crash",
                resumed_crash(
                    checkpointed, scratch, args.batches + 1, resumed
                ),
                states,
            )
        )
        for label, victim, expected in checks:
            survivor = recover_and_check(victim, label, expected, log)
            if survivor is None:
                failed = True
            elif survivor is True or survivor[0] != len(expected) - 1:
                log.append("  FAIL: a checkpointed crash lost committed batches")
                failed = True

        if deepest is not None and not failed:
            # Query battery: deepest survivor vs a never-crashed store
            # holding the same committed prefix (LSN 1 is the seed, so
            # LSN k carries mutation batches 1..k-1).
            from repro.datamodel.store import ObjectStore

            lsn, survivor = deepest
            crashed = Session()
            crashed.replace_store(survivor)
            prefix = ObjectStore()
            for i in range(1, lsn):
                apply_batch(prefix, i)
            reference = Session()
            reference.replace_store(prefix)
            for source in QUERIES:
                want = _query_rows(reference, source)
                got = _query_rows(crashed, source)
                if got != want:
                    log.append(f"  FAIL: query battery diverged: {source}")
                    failed = True
                else:
                    log.append(
                        f"  query battery OK ({len(want)} row(s)): {source}"
                    )
        log.append(
            "result: FAIL" if failed else "result: OK (all crash points)"
        )
    finally:
        text = "\n".join(log) + "\n"
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
