"""MemoryEngine: the ordered-KV contract every backend must honor."""

import pytest

from repro.storage import (
    CommitStamp,
    MemoryEngine,
    StorageError,
    WriteBatch,
)


@pytest.fixture
def engine():
    return MemoryEngine()


class TestPointOps:
    def test_get_missing_is_none(self, engine):
        assert engine.get(b"nope") is None

    def test_put_then_get(self, engine):
        engine.put(b"k", b"v")
        assert engine.get(b"k") == b"v"

    def test_put_default_empty_value(self, engine):
        engine.put(b"marker")
        assert engine.get(b"marker") == b""

    def test_overwrite(self, engine):
        engine.put(b"k", b"v1")
        engine.put(b"k", b"v2")
        assert engine.get(b"k") == b"v2"
        assert len(engine) == 1

    def test_delete(self, engine):
        engine.put(b"k", b"v")
        engine.delete(b"k")
        assert engine.get(b"k") is None
        assert len(engine) == 0

    def test_delete_missing_is_noop(self, engine):
        engine.delete(b"ghost")
        assert len(engine) == 0


class TestRangeScan:
    def _load(self, engine):
        # Insert out of order on purpose: scans must still sort.
        for key in (b"d", b"a", b"c", b"b", b"e"):
            engine.put(key, key.upper())

    def test_full_scan_sorted(self, engine):
        self._load(engine)
        assert [k for k, _v in engine.range_scan()] == [
            b"a", b"b", b"c", b"d", b"e",
        ]

    def test_half_open_bounds(self, engine):
        self._load(engine)
        assert [k for k, _v in engine.range_scan(b"b", b"d")] == [b"b", b"c"]

    def test_reverse(self, engine):
        self._load(engine)
        assert [k for k, _v in engine.range_scan(b"b", b"e", reverse=True)] == [
            b"d", b"c", b"b",
        ]

    def test_values_ride_along(self, engine):
        self._load(engine)
        assert dict(engine.range_scan(b"a", b"b")) == {b"a": b"A"}

    def test_scan_interleaved_with_writes(self, engine):
        # Point writes after a scan (sorted state) use the bisect path.
        self._load(engine)
        list(engine.range_scan())
        engine.put(b"ba", b"!")
        assert [k for k, _v in engine.range_scan(b"b", b"c")] == [b"b", b"ba"]


class TestBatches:
    def test_batch_applies_in_order(self, engine):
        batch = WriteBatch()
        batch.put(b"k", b"first")
        batch.put(b"k", b"second")
        batch.delete(b"gone")
        engine.apply(batch)
        assert engine.get(b"k") == b"second"

    def test_delete_range_half_open(self, engine):
        for key in (b"a", b"b", b"c", b"d"):
            engine.put(key)
        batch = WriteBatch()
        batch.delete_range(b"b", b"d")
        engine.apply(batch)
        assert [k for k, _v in engine.range_scan()] == [b"a", b"d"]

    def test_empty_batch_still_stamps(self, engine):
        stamp = engine.apply(WriteBatch())
        assert stamp.lsn == 1

    def test_lsn_monotonic(self, engine):
        stamps = [engine.put(b"k%d" % i) for i in range(5)]
        assert [s.lsn for s in stamps] == [1, 2, 3, 4, 5]

    def test_stamp_carries_generations(self, engine):
        # The commit stamp's one counter is the store's mutation ticket.
        stamp = engine.apply(WriteBatch(), ticket=11)
        assert stamp == CommitStamp(lsn=1, ticket=11)
        assert engine.last_stamp() == stamp

    def test_batch_len_and_bool(self):
        batch = WriteBatch()
        assert not batch and len(batch) == 0
        batch.put(b"k")
        batch.delete(b"k")
        assert batch and len(batch) == 2


class TestIntrospection:
    def test_items(self, engine):
        engine.put(b"b", b"2")
        engine.put(b"a", b"1")
        assert engine.items() == [(b"a", b"1"), (b"b", b"2")]

    def test_status_shape(self, engine):
        engine.put(b"k")
        status = engine.status()
        assert status["engine"] == "memory"
        assert status["keys"] == 1
        assert status["lsn"] == 1

    def test_storage_error_is_xsql_error(self):
        from repro.errors import XsqlError

        assert issubclass(StorageError, XsqlError)
