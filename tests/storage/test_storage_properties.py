"""Property suite: codec round-trips, order preservation, WAL recovery.

Three families of properties back the storage engine:

* every key/value the codec can produce decodes back to itself, and the
  byte ordering of packed keys agrees with the logical ordering of their
  components (within one component type);
* WAL recovery is idempotent — recovering a recovered directory changes
  nothing (``recover . recover == recover``);
* killing the process at an arbitrary byte of the WAL and recovering
  yields *exactly* the state after some prefix of the committed batches,
  never a torn half-batch — also with checkpoints interleaved, whether
  the crash cuts the WAL of a closed or a crashed (unclosed) database,
  or tears the image slot a checkpoint is writing.
"""

import os
import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oid import Atom, FuncOid, Value
from repro.storage import LogStructuredEngine, WriteBatch, pack_key, unpack_key
from repro.storage.codec import decode_cell_value, encode_cell_value
from repro.storage.wal import CKP_SLOTS, WAL_MAGIC

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
BIGINT = st.one_of(
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
)
FINITE_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.text(max_size=20)

primitive = st.one_of(INT64, FINITE_FLOAT, st.booleans(), TEXT)
scalar_oid = st.one_of(
    st.builds(Atom, st.text(min_size=1, max_size=12)),
    st.builds(Value, st.one_of(INT64, BIGINT, FINITE_FLOAT, st.booleans(), TEXT)),
)
func_oid = st.builds(
    FuncOid,
    st.text(min_size=1, max_size=8),
    st.tuples(scalar_oid) | st.tuples(scalar_oid, scalar_oid) | st.tuples(),
)
nested_func_oid = st.builds(
    FuncOid,
    st.text(min_size=1, max_size=8),
    st.tuples(func_oid) | st.tuples(scalar_oid, func_oid),
)
component = st.one_of(primitive, BIGINT, scalar_oid, func_oid, nested_func_oid)
key_tuple = st.lists(component, min_size=1, max_size=4).map(tuple)


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(key_tuple)
    def test_pack_unpack_round_trip(self, parts):
        assert unpack_key(pack_key(parts)) == parts

    @settings(max_examples=200, deadline=None)
    @given(st.lists(INT64, min_size=2, max_size=10))
    def test_int_order_preserved(self, values):
        packed = [pack_key((v,)) for v in values]
        for a, b in zip(sorted(values), sorted(values)[1:]):
            if a < b:
                assert pack_key((a,)) < pack_key((b,))
        assert sorted(packed) == [pack_key((v,)) for v in sorted(values)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FINITE_FLOAT, min_size=2, max_size=10))
    def test_float_order_preserved(self, values):
        for a in values:
            for b in values:
                if a < b:
                    assert pack_key((a,)) < pack_key((b,))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(TEXT, min_size=2, max_size=10))
    def test_string_order_preserved(self, values):
        for a in values:
            for b in values:
                if a < b:
                    assert pack_key((a,)) < pack_key((b,))

    @settings(max_examples=200, deadline=None)
    @given(
        st.booleans(),
        st.lists(st.one_of(scalar_oid, func_oid), min_size=0, max_size=5),
    )
    def test_cell_value_round_trip(self, scalar, oids):
        raw = encode_cell_value(scalar, oids)
        got_scalar, got = decode_cell_value(raw)
        assert got_scalar == scalar
        assert sorted(got, key=repr) == sorted(oids, key=repr)

    @settings(max_examples=200, deadline=None)
    @given(key_tuple, key_tuple)
    def test_packing_is_injective(self, a, b):
        if a != b:
            assert pack_key(a) != pack_key(b)


# ---------------------------------------------------------------------------
# WAL recovery properties
# ---------------------------------------------------------------------------

KEYS = [b"k%d" % i for i in range(8)]

batch_op = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.binary(max_size=8)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)),
)
batch_strategy = st.lists(batch_op, min_size=0, max_size=4)
history_strategy = st.lists(batch_strategy, min_size=1, max_size=6)


def _apply_history(engine, history, start=()):
    """Apply *history* and return the expected items after each batch."""
    shadow = dict(start)
    prefixes = [sorted(shadow.items())]
    for ops in history:
        batch = WriteBatch()
        for op in ops:
            if op[0] == "put":
                batch.put(op[1], op[2])
                shadow[op[1]] = op[2]
            else:
                batch.delete(op[1])
                shadow.pop(op[1], None)
        engine.apply(batch)
        prefixes.append(sorted(shadow.items()))
    return prefixes


class TestRecoveryProperties:
    @settings(max_examples=50, deadline=None)
    @given(history_strategy)
    def test_recover_is_idempotent(self, tmp_path_factory, history):
        root = str(tmp_path_factory.mktemp("idem") / "db")
        engine = LogStructuredEngine(root, sync="never")
        expected = _apply_history(engine, history)[-1]
        engine.close()

        once = LogStructuredEngine(root, sync="never")
        first_items = once.items()
        first_lsn = once.last_stamp().lsn
        once.close()

        twice = LogStructuredEngine(root, sync="never")
        assert twice.items() == first_items == expected
        assert twice.last_stamp().lsn == first_lsn
        assert twice.recovery.torn_reason == ""
        twice.close()

    @settings(max_examples=50, deadline=None)
    @given(history_strategy, st.data())
    def test_kill_point_recovers_a_committed_prefix(
        self, tmp_path_factory, history, data
    ):
        root = str(tmp_path_factory.mktemp("kill") / "db")
        engine = LogStructuredEngine(root, sync="never")
        prefixes = _apply_history(engine, history)
        engine.close()

        wal = os.path.join(root, "wal.log")
        size = os.path.getsize(wal)
        cut = data.draw(
            st.integers(min_value=len(WAL_MAGIC), max_value=size),
            label="kill offset",
        )
        with open(wal, "r+b") as handle:
            handle.truncate(cut)

        recovered = LogStructuredEngine(root, sync="never")
        items = recovered.items()
        lsn = recovered.last_stamp().lsn
        recovered.close()

        # The survivor must be exactly the state after some prefix of
        # the committed batches — never a torn half-batch.
        assert items == prefixes[lsn]
        assert lsn <= len(history)

    @settings(max_examples=25, deadline=None)
    @given(history_strategy, st.data())
    def test_kill_point_then_append_then_recover(
        self, tmp_path_factory, history, data
    ):
        """A recovered engine accepts new writes that survive re-recovery."""
        root = str(tmp_path_factory.mktemp("resume") / "db")
        engine = LogStructuredEngine(root, sync="never")
        _apply_history(engine, history)
        engine.close()

        wal = os.path.join(root, "wal.log")
        size = os.path.getsize(wal)
        cut = data.draw(
            st.integers(min_value=len(WAL_MAGIC), max_value=size),
            label="kill offset",
        )
        with open(wal, "r+b") as handle:
            handle.truncate(cut)

        engine = LogStructuredEngine(root, sync="never")
        engine.put(b"post-crash", b"!")
        engine.close()

        final = LogStructuredEngine(root, sync="never")
        assert final.recovery.torn_reason == ""
        assert final.get(b"post-crash") == b"!"
        final.close()


CHECKPOINT = "checkpoint"
step_strategy = st.one_of(batch_strategy, st.just(CHECKPOINT))
checkpointed_history = st.lists(step_strategy, min_size=1, max_size=10)


def _apply_steps(engine, steps):
    """Apply batches and checkpoints; return the items after each LSN."""
    prefixes = [[]]
    for step in steps:
        if step == CHECKPOINT:
            engine.checkpoint()
        else:
            prefixes.extend(_apply_history(engine, [step], prefixes[-1])[1:])
    return prefixes


def _files(root):
    files = {}
    for name in os.listdir(root):
        with open(os.path.join(root, name), "rb") as handle:
            files[name] = handle.read()
    return files


def _write_files(root, files):
    os.makedirs(root)
    for name, blob in files.items():
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(blob)


class TestCheckpointRecoveryProperties:
    @settings(max_examples=60, deadline=None)
    @given(checkpointed_history, st.booleans(), st.data())
    def test_cut_wal_recovers_a_committed_prefix(
        self, tmp_path_factory, steps, closed, data
    ):
        """Cut the WAL of a closed or crashed database at any byte."""
        base = tmp_path_factory.mktemp("ckpcut")
        root = str(base / "db")
        engine = LogStructuredEngine(root, sync="never")
        prefixes = _apply_steps(engine, steps)
        if not closed:
            # A crash image: the log still holds its end marker and any
            # pre-rewind bytes behind it.
            crashed = str(base / "crashed")
            shutil.copytree(root, crashed)
            engine.close()
            root = crashed
        else:
            engine.close()

        wal = os.path.join(root, "wal.log")
        cut = data.draw(
            st.integers(min_value=0, max_value=os.path.getsize(wal)),
            label="kill offset",
        )
        with open(wal, "r+b") as handle:
            handle.truncate(cut)

        recovered = LogStructuredEngine(root, sync="never")
        items = recovered.items()
        lsn = recovered.last_stamp().lsn
        recovered.put(b"post-crash", b"!")
        recovered.close()
        assert lsn < len(prefixes)
        assert items == prefixes[lsn]

        again = LogStructuredEngine(root, sync="never")
        assert again.recovery.torn_reason == ""
        assert again.items() == sorted(items + [(b"post-crash", b"!")])
        again.close()

    @settings(max_examples=60, deadline=None)
    @given(checkpointed_history, st.data())
    def test_torn_slot_write_recovers_a_committed_prefix(
        self, tmp_path_factory, steps, data
    ):
        """Tear the image slot the final checkpoint writes, at any byte.

        The crash lands before the slot is fsynced, so the log has not
        been rewound yet: the pre-checkpoint WAL beside a slot holding a
        prefix of the new image over the rest of the old one.
        """
        base = tmp_path_factory.mktemp("ckptear")
        root = str(base / "db")
        engine = LogStructuredEngine(root, sync="never")
        prefixes = _apply_steps(engine, steps)
        before = _files(root)
        engine.checkpoint()
        after = _files(root)
        engine.close()

        crash = dict(before)
        written = [
            name for name in CKP_SLOTS if after.get(name) != before.get(name)
        ]
        if written:
            (name,) = written
            new, old = after[name], before.get(name, b"")
            torn_at = data.draw(
                st.integers(min_value=0, max_value=len(new)), label="tear"
            )
            crash[name] = new[:torn_at] + old[torn_at:]
        victim = str(base / "torn")
        _write_files(victim, crash)

        recovered = LogStructuredEngine(victim, sync="never")
        assert recovered.items() == prefixes[recovered.last_stamp().lsn]
        assert recovered.last_stamp().lsn == len(prefixes) - 1
        recovered.close()
