"""Session-level snapshot isolation: SnapshotSession / ConcurrentSession.

The acceptance tests behind the MVCC refactor's API story: snapshot
sessions answer queries at their pinned version while the base session
keeps writing, writers never block pinned readers, and the concurrent
fan-out helper returns per-query versions.
"""

import threading

import pytest

from repro.errors import SnapshotReadOnlyError
from repro.oid import Atom
from repro.xsql.session import ConcurrentSession, Session, SnapshotSession


def seeded_session() -> Session:
    session = Session()
    store = session.store
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Employee", "Salary", "Numeral")
    for i in range(10):
        name = Atom(f"p{i}")
        store.create_object(name, ["Employee" if i % 2 else "Person"])
        store.set_attr(name, "Name", f"P{i}")
        store.set_attr(name, "Age", 20 + i * 4)
    return session


QUERY = "SELECT X.Name FROM Person X WHERE X.Age > 30"


class TestSnapshotSession:
    def test_snapshot_answers_at_pinned_version(self):
        base = seeded_session()
        before = base.query(QUERY).rows()
        with base.snapshot_view() as snap:
            assert isinstance(snap, SnapshotSession)
            assert snap.pinned
            base.store.set_attr(Atom("p0"), "Age", 99)
            assert snap.query(QUERY).rows() == before
            assert base.query(QUERY).rows() != before

    def test_snapshot_session_is_read_only(self):
        base = seeded_session()
        with base.snapshot_view() as snap:
            with pytest.raises(SnapshotReadOnlyError):
                snap.execute("CREATE CLASS Robot")

    def test_version_surfaces_on_both_sessions(self):
        base = seeded_session()
        with base.snapshot_view() as snap:
            pinned = snap.ticket
            assert pinned == base.ticket
            base.store.set_attr(Atom("p0"), "Age", 77)
            assert snap.ticket == pinned
            assert base.ticket > pinned

    def test_close_releases_the_pin(self):
        base = seeded_session()
        snap = base.snapshot_view()
        assert base.version_status()["pins"] == 1
        snap.close()
        assert base.version_status()["pins"] == 0

    def test_stacked_snapshots_see_distinct_versions(self):
        base = seeded_session()
        with base.snapshot_view() as old:
            base.store.set_attr(Atom("p0"), "Age", 99)
            with base.snapshot_view() as new:
                rows_old = old.query(QUERY).rows()
                rows_new = new.query(QUERY).rows()
                assert rows_old != rows_new
                assert old.ticket < new.ticket

    def test_snapshot_shares_the_base_registry(self):
        base = seeded_session()
        base.execute(
            "CREATE VIEW Adults AS SUBCLASS OF Object "
            "SIGNATURE AName = String "
            "SELECT AName = X.Name FROM Person X "
            "OID FUNCTION OF X WHERE X.Age > 30"
        )
        with base.snapshot_view() as snap:
            assert snap.query("SELECT X.AName FROM Adults X").rows()


class TestWritersNeverBlockReaders:
    def test_reader_iterates_while_writer_commits_1000_mutations(self):
        base = seeded_session()
        store = base.store
        mutations = 1200
        writer_done = threading.Event()
        progress_seen = []
        errors = []

        def writer():
            try:
                for i in range(mutations):
                    store.set_attr(Atom(f"p{i % 10}"), "Age", 20 + i % 60)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                writer_done.set()

        def reader():
            try:
                with base.snapshot_view() as snap:
                    baseline = snap.query(QUERY).rows()
                    # Keep re-reading the pinned version until the
                    # writer has finished all its commits: every read
                    # must come back identical and none may deadlock.
                    while not writer_done.is_set():
                        assert snap.query(QUERY).rows() == baseline
                        progress_seen.append(store.ticket)
                    assert snap.query(QUERY).rows() == baseline
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        reader_thread = threading.Thread(target=reader)
        writer_thread = threading.Thread(target=writer)
        reader_thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        reader_thread.join(timeout=120)
        assert not writer_thread.is_alive(), "writer blocked by reader"
        assert not reader_thread.is_alive(), "reader blocked by writer"
        assert not errors, errors
        # The writer really did commit while the snapshot was pinned.
        assert store.ticket >= mutations
        assert len(set(progress_seen)) > 1, "no concurrent interleaving"

    def test_no_torn_reads_under_set_churn(self):
        base = seeded_session()
        store = base.store
        store.declare_signature("Person", "Tags", "String", set_valued=True)
        store.set_attr_set(Atom("p0"), "Tags", ["a", "b", "c"])
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for i in range(400):
                    store.set_attr_set(
                        Atom("p0"), "Tags", [f"x{i}", f"y{i}", f"z{i}"]
                    )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    with base.snapshot_view() as snap:
                        values = snap.store.invoke(Atom("p0"), Atom("Tags"))
                        # Never a half-written set: always exactly 3.
                        assert len(values) == 3, values
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors


class TestConcurrentSession:
    def test_fan_out_returns_version_result_pairs(self):
        base = seeded_session()
        concurrent = ConcurrentSession(base)
        queries = [QUERY, "SELECT X FROM Employee X", QUERY]
        results = concurrent.run_concurrently(queries, workers=3)
        assert len(results) == 3
        for ticket, result in results:
            assert ticket == base.ticket
            assert result.rows() is not None
        assert results[0][1].rows() == results[2][1].rows()

    def test_fan_out_releases_every_pin(self):
        base = seeded_session()
        concurrent = ConcurrentSession(base)
        concurrent.run_concurrently([QUERY] * 8, workers=4)
        assert base.version_status()["pins"] == 0

    def test_empty_fan_out(self):
        base = seeded_session()
        assert ConcurrentSession(base).run_concurrently([]) == []
