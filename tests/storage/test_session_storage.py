"""Session.open/checkpoint/close lifecycle, options, and cache hygiene."""

import os

import pytest

from repro.oid import Atom
from repro.storage import (
    LogStructuredEngine,
    MemoryEngine,
    StorageError,
    StorageOptions,
    decode_store,
    make_engine,
)
from repro.xsql.session import Session
from tests.conftest import store_image


def load_people(session):
    session.execute(
        "CREATE CLASS Person SIGNATURE Name = String, Age = Numeral"
    )
    store = session.store
    for name, age in [("mary", 31), ("bob", 52), ("sue", 45)]:
        obj = store.create_object(Atom(name), ["Person"])
        store.set_attr(obj, "Name", name.capitalize())
        store.set_attr(obj, "Age", age)


def names_over_40(session):
    result = session.query("SELECT X.Name FROM Person X WHERE X.Age > 40")
    return sorted(row[0].value for row in result.rows())


class TestStorageOptions:
    def test_defaults(self):
        options = StorageOptions().validate()
        assert (options.backend, options.path, options.sync) == (
            "dict", None, "checkpoint",
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(StorageError):
            StorageOptions(backend="lsm").validate()

    def test_unknown_sync_rejected(self):
        with pytest.raises(StorageError):
            StorageOptions(sync="eventually").validate()

    def test_log_requires_path(self):
        with pytest.raises(StorageError):
            StorageOptions(backend="log").validate()

    def test_non_string_path_rejected(self):
        with pytest.raises(StorageError):
            StorageOptions(path=42).validate()

    @pytest.mark.parametrize(
        "spec, backend, path",
        [
            ("dict", "dict", None),
            ("memory", "memory", None),
            ("log:/tmp/db", "log", "/tmp/db"),
            ("/tmp/db", "log", "/tmp/db"),
        ],
    )
    def test_parse(self, spec, backend, path):
        options = StorageOptions.parse(spec)
        assert (options.backend, options.path) == (backend, path)

    def test_parse_empty_rejected(self):
        with pytest.raises(StorageError):
            StorageOptions.parse("")

    def test_coerce_threads_cli_flags(self):
        base = StorageOptions(backend="log", path="/tmp/db")
        merged = StorageOptions.coerce(base, sync="never", path=None)
        assert merged.sync == "never"
        assert merged.path == "/tmp/db"  # None means "keep"

    def test_coerce_rejects_foreign_types(self):
        with pytest.raises(StorageError):
            StorageOptions.coerce({"backend": "dict"})

    def test_with_overrides_revalidates(self):
        with pytest.raises(StorageError):
            StorageOptions().with_overrides(backend="log")

    def test_make_engine_per_backend(self):
        assert make_engine(StorageOptions()) is None
        assert isinstance(
            make_engine(StorageOptions(backend="memory")), MemoryEngine
        )


class TestLifecycle:
    def test_default_open_is_plain_dict_session(self):
        session = Session.open()
        assert session.storage_engine is None
        assert session.storage_options.backend == "dict"
        load_people(session)
        assert names_over_40(session) == ["Bob", "Sue"]
        session.close()  # idempotent no-op

    def test_log_backend_round_trip(self, tmp_path):
        path = str(tmp_path / "db")
        session = Session.open(path, sync="never")
        load_people(session)
        session.checkpoint()
        session.close()

        reopened = Session.open(path, sync="never")
        assert names_over_40(reopened) == ["Bob", "Sue"]
        assert reopened.store.is_instance(Atom("mary"), "Person")
        reopened.close()

    def test_reopen_without_checkpoint_replays_wal(self, tmp_path):
        path = str(tmp_path / "db")
        session = Session.open(path, sync="never")
        load_people(session)
        session.close()

        reopened = Session.open(path, sync="never")
        assert reopened.storage_engine.recovery.replayed_batches > 0
        assert names_over_40(reopened) == ["Bob", "Sue"]
        reopened.close()

    def test_memory_backend_mirrors_without_disk(self):
        session = Session.open(engine="memory")
        load_people(session)
        engine = session.storage_engine
        assert isinstance(engine, MemoryEngine)
        assert len(engine) > 0
        status = session.storage_status()
        assert status["backend"] == "memory"
        assert status["batches_committed"] > 0
        session.close()

    def test_dict_backend_rejects_a_path(self, tmp_path):
        path = str(tmp_path / "s.json")
        with pytest.raises(StorageError):
            StorageOptions.parse(f"dict:{path}")
        with pytest.raises(StorageError):
            Session.open(path, engine="dict")
        assert not os.path.exists(path)

    def test_checkpoint_without_engine_returns_none(self):
        session = Session.open()
        load_people(session)
        assert session.checkpoint() is None

    def test_open_adopts_engine_instance(self, tmp_path):
        path = str(tmp_path / "db")
        first = Session.open(path, sync="never")
        load_people(first)
        first.close()

        engine = LogStructuredEngine(path, sync="never")
        session = Session.open(engine=engine)
        assert session.storage_engine is engine
        assert session.storage_options.backend == "log"
        assert session.storage_options.path == path
        assert names_over_40(session) == ["Bob", "Sue"]
        session.close()

    def test_engine_instance_names_the_backend(self, tmp_path):
        # The engine's type decides the label, not the path argument:
        # a MemoryEngine writes nothing to *path*.
        path = tmp_path / "nowhere"
        session = Session.open(str(path), engine=MemoryEngine())
        status = session.storage_status()
        assert (status["backend"], status["path"]) == ("memory", None)
        load_people(session)
        session.checkpoint()
        assert not path.exists()
        session.close()

    def test_pre_populated_session_seeds_fresh_engine(self, tmp_path):
        path = str(tmp_path / "db")
        session = Session()
        load_people(session)
        session.attach_storage(
            StorageOptions(backend="log", path=path, sync="never")
        )
        session.close()
        reopened = Session.open(path, sync="never")
        assert names_over_40(reopened) == ["Bob", "Sue"]
        reopened.close()

    def test_materialized_view_survives_checkpoint_and_replay(
        self, tmp_path
    ):
        # A maintained view's writes go through the same sink fan-out as
        # the journal (journal first), so both the materialization and
        # the post-checkpoint incremental maintenance must come back
        # after a crash (reopen without close -> WAL tail replay).
        path = str(tmp_path / "db")
        session = Session.open(path, sync="never")
        load_people(session)
        session.query(
            "CREATE VIEW NameCard AS SUBCLASS OF Object "
            "SIGNATURE PName = String "
            "SELECT PName = X.Name FROM Person X OID FUNCTION OF X"
        )
        session.checkpoint()
        # A point write after the checkpoint: the targeted maintenance
        # it triggers lives only in the WAL tail.
        session.store.set_attr(Atom("mary"), "Name", "Maria")
        through = session.query("SELECT V.PName FROM NameCard V")
        assert sorted(v.value for v in through.single_column()) == [
            "Bob", "Maria", "Sue",
        ]
        status = session.views.maintenance_status()["NameCard"]
        assert status["state"] == "fresh"
        assert status["last_kind"] == "targeted"

        reopened = Session.open(path, sync="never")
        assert reopened.storage_engine.recovery.replayed_batches > 0
        replayed = reopened.query("SELECT V.PName FROM NameCard V")
        assert sorted(v.value for v in replayed.single_column()) == [
            "Bob", "Maria", "Sue",
        ]
        reopened.close()
        session.close()

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        path = str(tmp_path / "db")
        session = Session.open(path, sync="never")
        load_people(session)
        session.close()
        session.close()
        assert session.storage_engine is None
        assert session.store.journal is None
        # Still usable as a plain session afterwards.
        assert names_over_40(session) == ["Bob", "Sue"]


class TestRestoreAfterCheckpoint:
    """Rollback after checkpoint(): indexes carry, caches settle once."""

    def make_session(self, tmp_path):
        session = Session.open(str(tmp_path / "db"), sync="never")
        load_people(session)
        session.enable_index("Age")
        return session

    def counters(self, session):
        return session.stats()["counters"]

    def test_indexes_survive_restore(self, tmp_path):
        session = self.make_session(tmp_path)
        image = store_image(session.store)
        session.checkpoint()
        session.replace_store(decode_store(image))
        assert "Age" in session.indexes()
        assert names_over_40(session) == ["Bob", "Sue"]
        session.close()

    def test_caches_settle_in_one_compile(self, tmp_path):
        session = self.make_session(tmp_path)
        query = "SELECT X.Name FROM Person X WHERE X.Age > 40"
        session.query(query)
        session.query(query)
        assert self.counters(session).get("cache.hit", 0) >= 1

        image = store_image(session.store)
        session.checkpoint()
        before = self.counters(session)
        session.replace_store(decode_store(image))

        session.query(query)  # one fresh compile...
        session.query(query)  # ...then hits again
        after = self.counters(session)
        recompiles = (
            after.get("cache.miss", 0) - before.get("cache.miss", 0)
        ) + (
            after.get("cache.invalidated", 0)
            - before.get("cache.invalidated", 0)
        )
        assert recompiles == 1
        assert after.get("cache.hit", 0) > before.get("cache.hit", 0)
        session.close()

    def test_generations_raised_exactly_to_stamp(self, tmp_path):
        """Reopening lands the ticket on the commit stamp, and the
        statistics match the data they count."""
        path = str(tmp_path / "db")
        session = self.make_session(tmp_path)
        statistics = session.store.statistics.snapshot()
        session.close()

        reopened = Session.open(path, sync="never")
        stamp = reopened.storage_engine.last_stamp()
        assert reopened.store.ticket >= stamp.ticket
        assert reopened.store.statistics.snapshot() == statistics
        reopened.close()

    def test_restore_is_a_recoverable_event(self, tmp_path):
        """The store swap itself reaches the WAL and survives reopen."""
        path = str(tmp_path / "db")
        session = self.make_session(tmp_path)
        image = store_image(session.store)
        store = session.store
        store.set_attr(Atom("mary"), "Age", 99)
        session.replace_store(decode_store(image))  # roll the change back
        session.close()

        reopened = Session.open(path, sync="never")
        assert names_over_40(reopened) == ["Bob", "Sue"]
        result = reopened.query("SELECT X.Age FROM Person X WHERE X.Name = 'Mary'")
        assert [row[0].value for row in result.rows()] == [31]
        reopened.close()


class TestVersionTicketResume:
    def test_reopened_session_resumes_the_ticket_sequence(self, tmp_path):
        root = str(tmp_path / "db")
        session = Session.open(root, sync="never")
        load_people(session)
        ticket_at_close = session.store.ticket
        assert ticket_at_close > 0
        session.close()

        reopened = Session.open(root, sync="never")
        try:
            # The decoded store restored the committed ticket, so new
            # mutations continue the sequence instead of restarting it.
            assert reopened.store.ticket >= ticket_at_close
            before = reopened.store.ticket
            reopened.store.set_attr(Atom("mary"), "Age", 33)
            assert reopened.store.ticket > before
            assert names_over_40(reopened) == ["Bob", "Sue"]
        finally:
            reopened.close()
