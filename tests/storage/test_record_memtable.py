"""The log engine's memtable holds each live key as its image record.

A checkpoint joins the stored records instead of re-encoding the store,
so these tests pin what that must not change: every image is
byte-identical to one encoded from scratch (the reference encoder
below, the image format as written before records were kept), reads
slice the right values out of the records, and a directory written by
the reference encoder recovers.
"""

import os
import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.wal as wal
from repro.storage import (
    LogStructuredEngine,
    MemoryEngine,
    WriteBatch,
    encode_store,
)
from repro.storage.wal import CKP_MAGIC, CKP_SLOTS, WAL_MAGIC
from repro.workloads.generator import WorkloadConfig, generate_database

_U32 = struct.Struct(">I")
_HEAD = struct.Struct(">QQI")


def reference_head(stamp, op_count):
    return _HEAD.pack(stamp.lsn, stamp.ticket, op_count)


def reference_op(op):
    """One op encoded field by field."""
    if op[0] == "put":
        _kind, key, value = op
        return b"".join(
            (b"P", _U32.pack(len(key)), key, _U32.pack(len(value)), value)
        )
    if op[0] == "del":
        return b"D" + _U32.pack(len(op[1])) + op[1]
    _kind, start, end = op
    return b"".join(
        (b"R", _U32.pack(len(start)), start, _U32.pack(len(end)), end)
    )


def reference_image(engine, stamp):
    """The checkpoint payload encoded from a scan: one put per live key."""
    puts = [("put", key, value) for key, value in engine.range_scan()]
    return reference_head(stamp, len(puts)) + b"".join(
        reference_op(op) for op in puts
    )


def _frame(payload):
    return _U32.pack(len(payload)) + _U32.pack(zlib.crc32(payload)) + payload


def newest_image(engine):
    """The framed payload of the slot ``status()`` names as newest."""
    status = engine.status()
    with open(os.path.join(engine.root, status["image_slot"]), "rb") as f:
        blob = f.read()
    assert blob.startswith(CKP_MAGIC)
    length = _U32.unpack_from(blob, len(CKP_MAGIC))[0]
    start = len(CKP_MAGIC) + 8
    assert status["image_bytes"] == start + length
    return blob[start : start + length]


# ---------------------------------------------------------------------------
# property: images byte-identical, state equal to a MemoryEngine's
# ---------------------------------------------------------------------------

KEYS = [b"", b"a", b"ab", b"k\x00", b"k1", b"k2", b"zz" * 6]

op = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.binary(max_size=12)),
    st.tuples(st.just("del"), st.sampled_from(KEYS)),
    st.tuples(
        st.just("delrange"), st.sampled_from(KEYS), st.sampled_from(KEYS)
    ),
)
step = st.one_of(
    st.lists(op, max_size=5).map(lambda ops: ("batch", ops)),
    st.just(("checkpoint",)),
    st.just(("reopen",)),
)


def _batch(ops):
    batch = WriteBatch()
    for kind, *args in ops:
        if kind == "put":
            batch.put(*args)
        elif kind == "del":
            batch.delete(*args)
        else:
            batch.delete_range(*args)
    return batch


@settings(max_examples=80, deadline=None)
@given(st.lists(step, min_size=1, max_size=14))
def test_images_match_the_reference_encoder(tmp_path_factory, steps):
    root = str(tmp_path_factory.mktemp("records") / "db")
    engine = LogStructuredEngine(root, sync="never")
    shadow = MemoryEngine()
    try:
        for n, (kind, *args) in enumerate(steps, start=1):
            if kind == "batch":
                engine.apply(_batch(args[0]), ticket=3 * n)
                shadow.apply(_batch(args[0]), ticket=3 * n)
            elif kind == "checkpoint":
                stamp = engine.checkpoint()
                assert stamp == shadow.last_stamp()
                assert newest_image(engine) == reference_image(shadow, stamp)
            else:
                engine.close()
                engine = LogStructuredEngine(root, sync="never")
            assert engine.items() == shadow.items()
            assert list(engine.range_scan(b"a", b"k2", reverse=True)) == list(
                shadow.range_scan(b"a", b"k2", reverse=True)
            )
            for key in KEYS:
                assert engine.get(key) == shadow.get(key)
        engine.close()
        engine = LogStructuredEngine(root, sync="never")
        assert engine.items() == shadow.items()
        assert engine.last_stamp() == shadow.last_stamp()
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# a checkpoint encodes nothing
# ---------------------------------------------------------------------------


def test_checkpoint_calls_the_record_encoder_zero_times(tmp_path, monkeypatch):
    store = generate_database(WorkloadConfig(n_people=800, seed=8))
    engine = LogStructuredEngine(str(tmp_path / "db"), sync="never")
    report = encode_store(store, engine)
    assert report.objects >= 2000
    calls = []
    encode = wal._put_record

    def counting(key, value):
        calls.append(key)
        return encode(key, value)

    monkeypatch.setattr(wal, "_put_record", counting)
    engine.checkpoint()
    assert calls == []
    engine.put(b"zz", b"1")  # the patch point is the one commits use
    assert calls == [b"zz"]
    engine.checkpoint()
    assert calls == [b"zz"]
    payload = newest_image(engine)
    assert payload == reference_image(engine, engine.last_stamp())
    engine.close()


# ---------------------------------------------------------------------------
# a directory written by the reference encoder recovers
# ---------------------------------------------------------------------------


def test_reference_written_directory_recovers(tmp_path):
    """Slot 0 holds a reference image at LSN 2; the log continues it."""
    from repro.storage import CommitStamp

    root = tmp_path / "db"
    root.mkdir()
    image_items = [(b"a", b"1"), (b"b", b""), (b"c", b"33"), (b"d", b"4")]
    image_stamp = CommitStamp(lsn=2, ticket=7)
    payload = reference_head(image_stamp, len(image_items)) + b"".join(
        reference_op(("put", k, v)) for k, v in image_items
    )
    (root / CKP_SLOTS[0]).write_bytes(CKP_MAGIC + _frame(payload))
    batches = [
        [("put", b"e", b"5"), ("del", b"a")],
        [("delrange", b"b", b"d"), ("put", b"b", b"new")],
    ]
    log = [WAL_MAGIC + struct.pack(">Q", 2)]
    for lsn, ops in enumerate(batches, start=3):
        stamp = CommitStamp(lsn=lsn, ticket=7 + lsn)
        log.append(
            _frame(
                reference_head(stamp, len(ops))
                + b"".join(reference_op(o) for o in ops)
            )
        )
    (root / "wal.log").write_bytes(b"".join(log))

    engine = LogStructuredEngine(str(root), sync="never")
    expected = [(b"b", b"new"), (b"d", b"4"), (b"e", b"5")]
    assert engine.items() == expected
    assert engine.recovery.checkpoint_lsn == 2
    assert engine.recovery.replayed_batches == 2
    assert engine.last_stamp().ticket == 11
    assert engine.get(b"b") == b"new" and engine.get(b"a") is None
    stamp = engine.checkpoint()
    assert newest_image(engine) == reference_image(engine, stamp)
    engine.close()
    reopened = LogStructuredEngine(str(root), sync="never")
    assert reopened.items() == expected
    reopened.close()
