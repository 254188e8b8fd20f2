"""LogStructuredEngine: WAL framing, checkpoints, and crash recovery."""

import os
import struct

import pytest

from repro.storage import (
    CommitStamp,
    LogStructuredEngine,
    StorageError,
    WriteBatch,
)
from repro.storage.wal import CKP_MAGIC, CKP_SLOTS, WAL_HEADER_SIZE, WAL_MAGIC


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "db")


def _open(db, sync="never"):
    return LogStructuredEngine(db, sync=sync)


def _write(engine, pairs):
    batch = WriteBatch()
    for key, value in pairs:
        batch.put(key, value)
    return engine.apply(batch)


class TestPersistence:
    def test_survives_close_and_reopen(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1"), (b"b", b"2")])
        _write(engine, [(b"c", b"3")])
        engine.close()

        recovered = _open(db)
        assert recovered.items() == [
            (b"a", b"1"), (b"b", b"2"), (b"c", b"3"),
        ]
        assert recovered.recovery.replayed_batches == 2
        assert recovered.last_stamp().lsn == 2
        recovered.close()

    def test_lsns_continue_across_reopen(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.close()
        engine = _open(db)
        stamp = _write(engine, [(b"b", b"2")])
        assert stamp.lsn == 2
        engine.close()

    def test_deletes_and_ranges_replay(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        batch = WriteBatch()
        batch.delete(b"a")
        batch.delete_range(b"b", b"c")
        engine.apply(batch)
        engine.close()
        recovered = _open(db)
        assert recovered.items() == [(b"c", b"3")]
        recovered.close()

    def test_closed_engine_refuses_writes(self, db):
        engine = _open(db)
        engine.close()
        with pytest.raises(StorageError):
            engine.put(b"k")

    def test_generation_stamps_recovered(self, db):
        # The commit stamp is (lsn, ticket); the batch head carries both.
        engine = _open(db)
        engine.apply(WriteBatch(), ticket=5)
        engine.apply(WriteBatch(), ticket=9)
        engine.close()
        recovered = _open(db)
        assert recovered.last_stamp() == CommitStamp(lsn=2, ticket=9)
        recovered.close()


class TestTornTail:
    def _fill(self, db, batches=3):
        engine = _open(db)
        for i in range(batches):
            _write(engine, [(b"k%d" % i, b"v%d" % i)])
        engine.close()
        return os.path.join(db, "wal.log")

    def test_truncated_record_body_drops_last_batch(self, db):
        wal = self._fill(db)
        size = os.path.getsize(wal)
        with open(wal, "r+b") as handle:
            handle.truncate(size - 3)
        recovered = _open(db)
        assert recovered.recovery.torn_reason == "torn record body"
        assert recovered.recovery.truncated_at is not None
        assert recovered.get(b"k2") is None
        assert recovered.get(b"k1") == b"v1"
        recovered.close()

    def test_corrupt_crc_drops_tail(self, db):
        wal = self._fill(db)
        with open(wal, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        recovered = _open(db)
        assert recovered.recovery.torn_reason == "record CRC mismatch"
        assert recovered.get(b"k2") is None
        recovered.close()

    def test_recovery_truncates_so_next_open_is_clean(self, db):
        wal = self._fill(db)
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 3)
        first = _open(db)
        first_items = first.items()
        first.close()
        second = _open(db)
        assert second.recovery.torn_reason == ""
        assert second.recovery.truncated_at is None
        assert second.items() == first_items
        second.close()

    def test_bad_magic_is_corruption(self, db):
        engine = _open(db)
        engine.close()
        with open(os.path.join(db, "wal.log"), "r+b") as handle:
            handle.write(b"NOTAWAL!")
        with pytest.raises(StorageError):
            _open(db)

    def test_previous_format_log_is_refused(self, db):
        # A log with the previous batch-head layout fails on its magic
        # instead of being misread.
        os.makedirs(db)
        with open(os.path.join(db, "wal.log"), "wb") as handle:
            handle.write(b"XSQLWAL3" + struct.pack(">Q", 0) + bytes(8))
        with pytest.raises(StorageError, match="bad magic"):
            _open(db)

    def test_appends_resume_after_truncation(self, db):
        wal = self._fill(db)
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 3)
        engine = _open(db)
        _write(engine, [(b"new", b"!")])
        engine.close()
        recovered = _open(db)
        assert recovered.recovery.torn_reason == ""
        assert recovered.get(b"new") == b"!"
        recovered.close()


class TestCheckpoint:
    def test_checkpoint_shrinks_wal(self, db):
        engine = _open(db)
        for i in range(10):
            _write(engine, [(b"k%d" % i, b"v")])
        before = engine.wal_size()
        engine.checkpoint()
        assert engine.wal_size() == WAL_HEADER_SIZE < before
        engine.close()

    def test_recovery_prefers_checkpoint(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        _write(engine, [(b"b", b"2")])
        engine.close()
        recovered = _open(db)
        assert recovered.recovery.checkpoint_keys == 1
        assert recovered.recovery.replayed_batches == 1
        assert recovered.items() == [(b"a", b"1"), (b"b", b"2")]
        recovered.close()

    def test_crash_between_checkpoint_and_wal_swap(self, db):
        """Old-WAL records at or below the checkpoint LSN replay as skips."""
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        _write(engine, [(b"b", b"2")])
        old_wal = open(os.path.join(db, "wal.log"), "rb").read()
        engine.checkpoint()
        engine.close()
        # Simulate the crash: the checkpoint image exists, but the WAL
        # still holds the pre-checkpoint records.
        with open(os.path.join(db, "wal.log"), "wb") as handle:
            handle.write(old_wal)
        recovered = _open(db)
        assert recovered.recovery.skipped_batches == 2
        assert recovered.recovery.replayed_batches == 0
        assert recovered.items() == [(b"a", b"1"), (b"b", b"2")]
        recovered.close()

    def test_corrupt_checkpoint_image_raises(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        engine.close()
        snap = os.path.join(db, "checkpoint.snap")
        blob = bytearray(open(snap, "rb").read())
        blob[-1] ^= 0xFF
        with open(snap, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(StorageError):
            _open(db)

    def test_checkpoint_magic(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        engine.close()
        blob = open(os.path.join(db, "checkpoint.snap"), "rb").read()
        assert blob.startswith(CKP_MAGIC)


class TestSyncModes:
    def test_unknown_sync_mode(self, db):
        with pytest.raises(StorageError):
            LogStructuredEngine(db, sync="sometimes")

    @pytest.mark.parametrize("mode", ["commit", "checkpoint", "never"])
    def test_all_modes_round_trip(self, tmp_path, mode):
        path = str(tmp_path / mode)
        engine = LogStructuredEngine(path, sync=mode)
        _write(engine, [(b"k", b"v")])
        engine.checkpoint()
        _write(engine, [(b"l", b"w")])
        engine.close()
        recovered = LogStructuredEngine(path, sync=mode)
        assert recovered.items() == [(b"k", b"v"), (b"l", b"w")]
        recovered.close()


class TestStatus:
    def test_status_reports_path_and_wal(self, db):
        engine = _open(db)
        _write(engine, [(b"k", b"v")])
        status = engine.status()
        assert status["engine"] == "log"
        assert status["path"] == db
        assert status["sync"] == "never"
        assert status["wal_bytes"] > len(WAL_MAGIC)
        engine.close()

    def test_status_reports_the_newest_image(self, db):
        engine = _open(db)
        assert engine.status()["image_bytes"] == 0
        assert engine.status()["image_slot"] is None
        _write(engine, [(b"k%03d" % i, b"x" * 50) for i in range(100)])
        engine.checkpoint()
        engine.checkpoint()
        batch = WriteBatch()
        batch.delete_range(b"k001", b"k100")
        engine.apply(batch)
        engine.checkpoint()  # the third image lands in slot 0 over the first
        status = engine.status()
        slot = os.path.join(db, CKP_SLOTS[0])
        with open(slot, "rb") as handle:
            blob = handle.read()
        length = struct.unpack_from(">I", blob, len(CKP_MAGIC))[0]
        framed = len(CKP_MAGIC) + 8 + length
        assert status["image_slot"] == CKP_SLOTS[0]
        assert status["image_bytes"] == framed
        assert status["image_bytes"] < os.path.getsize(slot)
        engine.close()
        recovered = _open(db)
        assert recovered.status()["image_slot"] == CKP_SLOTS[0]
        assert recovered.status()["image_bytes"] == framed
        recovered.close()

    def test_session_storage_status_shows_the_image(self, tmp_path):
        from repro.xsql.repl import _storage_line
        from repro.xsql.session import Session

        session = Session.open(str(tmp_path / "db"), sync="never")
        session.checkpoint()
        status = session.storage_status()
        assert status["image_slot"] == CKP_SLOTS[0]
        assert status["image_bytes"] == os.path.getsize(
            str(tmp_path / "db" / CKP_SLOTS[0])
        )
        assert f"image_bytes={status['image_bytes']}" in _storage_line(session)
        session.close()

    def test_recovery_report_lines(self, db):
        engine = _open(db)
        _write(engine, [(b"k", b"v")])
        engine.close()
        recovered = _open(db)
        text = "\n".join(recovered.recovery.lines())
        assert "replayed: 1 batch(es)" in text
        recovered.close()


class TestMvccTicket:
    def test_ticket_stamp_survives_reopen(self, db):
        engine = _open(db)
        engine.apply(WriteBatch(), ticket=42)
        engine.close()
        recovered = _open(db)
        assert recovered.last_stamp().ticket == 42
        recovered.close()

    def test_ticket_survives_checkpoint(self, db):
        engine = _open(db)
        engine.apply(WriteBatch(), ticket=17)
        engine.checkpoint()
        engine.close()
        recovered = _open(db)
        assert recovered.last_stamp().ticket == 17
        recovered.close()

    def test_torn_tail_falls_back_to_prior_ticket(self, db):
        engine = _open(db)
        engine.apply(WriteBatch(), ticket=7)
        engine.apply(WriteBatch(), ticket=13)
        engine.close()
        size = os.path.getsize(os.path.join(db, "wal.log"))
        with open(os.path.join(db, "wal.log"), "r+b") as handle:
            handle.truncate(size - 3)
        recovered = _open(db)
        assert recovered.last_stamp().ticket == 7
        recovered.close()


class TestCheckpointInPlace:
    """Two image slots overwritten in place and a WAL rewound in place."""

    def test_steady_state_checkpoint_frees_no_blocks(self, db, monkeypatch):
        """No checkpoint renames, unlinks or truncates anything."""
        from repro.storage import wal as wal_module

        armed = []

        def refuse(name):
            def call(*args, **kwargs):
                if armed:
                    raise AssertionError(f"checkpoint called {name}")
                return real[name](*args, **kwargs)

            return call

        names = ("replace", "rename", "unlink", "remove", "truncate",
                 "ftruncate")
        real = {name: getattr(os, name) for name in names}
        for name in names:
            monkeypatch.setattr(os, name, refuse(name))

        class Guarded:
            """A file whose ``truncate`` is refused while armed."""

            def __init__(self, handle):
                self._handle = handle

            def truncate(self, *args):
                if armed:
                    raise AssertionError("checkpoint truncated a file")
                return self._handle.truncate(*args)

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._handle.__exit__(*exc)

        monkeypatch.setattr(
            wal_module, "open",
            lambda *args, **kwargs: Guarded(open(*args, **kwargs)),
            raising=False,
        )
        engine = LogStructuredEngine(db, sync="checkpoint")
        _write(engine, [(b"a", b"1")])
        armed.append(True)
        engine.checkpoint()
        _write(engine, [(b"b", b"2")])
        engine.checkpoint()
        _write(engine, [(b"c", b"3")])
        engine.checkpoint()
        armed.clear()
        _write(engine, [(b"d", b"4")])
        engine.close()
        recovered = _open(db)
        assert recovered.items() == [
            (b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4"),
        ]
        assert recovered.recovery.checkpoint_lsn == 3
        recovered.close()

    def test_checkpoints_alternate_slots(self, db):
        engine = _open(db)
        lsns = []
        for i in range(3):
            _write(engine, [(b"k%d" % i, b"v")])
            engine.checkpoint()
            lsns.append(
                [_image_lsn(os.path.join(db, name)) for name in CKP_SLOTS]
            )
        engine.close()
        assert lsns == [[1, None], [1, 2], [3, 2]]

    def test_shorter_image_ignores_stale_tail(self, db):
        engine = _open(db)
        _write(engine, [(b"k%03d" % i, b"x" * 50) for i in range(100)])
        engine.checkpoint()
        engine.checkpoint()
        batch = WriteBatch()
        batch.delete_range(b"k001", b"k100")
        engine.apply(batch)
        engine.checkpoint()  # short image over the long one in slot 0
        engine.close()
        slot = os.path.join(db, CKP_SLOTS[0])
        assert os.path.getsize(slot) > 1000
        recovered = _open(db)
        assert recovered.items() == [(b"k000", b"x" * 50)]
        assert recovered.recovery.checkpoint_lsn == 2
        recovered.close()

    def test_corrupt_newest_slot_after_rewind_raises(self, db):
        """Falling back to the older slot would drop LSN 2 silently."""
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        _write(engine, [(b"b", b"2")])
        engine.checkpoint()
        engine.close()
        _flip_last_byte(os.path.join(db, CKP_SLOTS[1]))
        with pytest.raises(StorageError, match="newest valid image"):
            _open(db)

    def test_corrupt_older_slot_is_a_torn_write(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        _write(engine, [(b"b", b"2")])
        engine.checkpoint()
        _write(engine, [(b"c", b"3")])
        engine.close()
        _flip_last_byte(os.path.join(db, CKP_SLOTS[0]))
        recovered = _open(db)
        assert recovered.items() == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
        recovered.close()

    def test_short_header_continues_newest_image(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        engine.close()
        for cut in (0, 5, 9):
            with open(os.path.join(db, "wal.log"), "r+b") as handle:
                handle.truncate(cut)
            recovered = _open(db)
            assert recovered.items() == [(b"a", b"1")]
            assert recovered.recovery.torn_reason == "torn WAL header"
            _write(recovered, [(b"b", b"2")])
            recovered.close()
            again = _open(db)
            assert again.items() == [(b"a", b"1"), (b"b", b"2")]
            assert again.recovery.torn_reason == ""
            batch = WriteBatch()
            batch.delete(b"b")
            again.apply(batch)
            again.checkpoint()
            again.close()

    def test_crash_after_rewind_never_replays_stale_records(self, db, tmp_path):
        """An unclosed log keeps pre-rewind bytes past the end marker."""
        import shutil

        engine = _open(db)
        for i in range(5):
            _write(engine, [(b"k%d" % i, b"old")])
        engine.checkpoint()
        _write(engine, [(b"new", b"!")])
        crashed = str(tmp_path / "crashed")
        shutil.copytree(db, crashed)
        engine.close()
        assert os.path.getsize(os.path.join(crashed, "wal.log")) > (
            os.path.getsize(os.path.join(db, "wal.log"))
        )
        recovered = _open(crashed)
        assert recovered.recovery.replayed_batches == 1
        assert recovered.recovery.torn_reason == ""
        assert recovered.get(b"new") == b"!"
        assert len(recovered) == 6
        recovered.close()
        assert os.path.getsize(os.path.join(crashed, "wal.log")) == (
            os.path.getsize(os.path.join(db, "wal.log"))
        )

    def test_cut_log_that_predates_the_image_is_rewound(self, db):
        """A pre-rewind log cut short of the image still resumes cleanly."""
        engine = _open(db)
        for i in range(3):
            _write(engine, [(b"k%d" % i, b"v")])
        with open(os.path.join(db, "wal.log"), "rb") as handle:
            old_wal = handle.read()
        engine.checkpoint()
        engine.close()
        # Crash before the rewind, with the last record torn as well
        # (the open log ends in an 8-byte end marker).
        with open(os.path.join(db, "wal.log"), "wb") as handle:
            handle.write(old_wal[: len(old_wal) - 8 - 3])
        recovered = _open(db)
        assert recovered.recovery.skipped_batches == 2
        assert recovered.last_stamp().lsn == 3
        _write(recovered, [(b"k3", b"v")])
        recovered.close()
        again = _open(db)
        assert again.recovery.torn_reason == ""
        assert again.recovery.replayed_batches == 1
        assert [key for key, _ in again.items()] == [
            b"k0", b"k1", b"k2", b"k3",
        ]
        again.close()

    def test_failed_slot_write_is_retried_into_the_same_slot(
        self, db, monkeypatch
    ):
        """A retry must not overwrite the slot the log still continues."""
        engine = LogStructuredEngine(db, sync="checkpoint")
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        _write(engine, [(b"b", b"2")])
        real_fsync = os.fsync
        failures = []

        def failing_fsync(fd):
            if fd != engine._wal.fileno() and not failures:
                failures.append(fd)
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            engine.checkpoint()
        assert failures
        slots = [os.path.join(db, name) for name in CKP_SLOTS]
        assert [_image_lsn(path) for path in slots] == [1, 2]
        # Model the failed write as torn: only slot 0 holds a valid image.
        _flip_last_byte(slots[1])
        with open(slots[0], "rb") as handle:
            newest_valid = handle.read()
        _write(engine, [(b"c", b"3")])
        engine.checkpoint()
        with open(slots[0], "rb") as handle:
            assert handle.read() == newest_valid
        assert _image_lsn(slots[1]) == 3
        engine.close()
        recovered = _open(db)
        assert recovered.items() == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
        assert recovered.recovery.checkpoint_lsn == 3
        recovered.close()

    def test_missing_slots_with_rewound_log_raise(self, db):
        engine = _open(db)
        _write(engine, [(b"a", b"1")])
        engine.checkpoint()
        engine.close()
        os.remove(os.path.join(db, CKP_SLOTS[0]))
        with pytest.raises(StorageError, match="newest valid image"):
            _open(db)


def _image_lsn(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        blob = handle.read()
    return struct.unpack_from(">Q", blob, len(CKP_MAGIC) + 8)[0]


def _flip_last_byte(path):
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))
