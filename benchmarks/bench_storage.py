"""STORAGE: codec throughput, write-path overhead per backend, and WAL
recovery speed.

The codec is the store's one persistence format: the encode/decode
groups pin its whole-store cost curve across database sizes and assert
the round-trip changes nothing (a decoded database answers a reference
query identically).  The storage engine's contract is "pay only for
what you attach": the default dict backend must not slow the write path
down at all, the memory mirror costs one codec pass per mutation, and
the WAL adds framing plus an append.  The bench pins the ingest cost
curve per backend and the open-with-replay (crash recovery) and
checkpoint-then-open costs of the log engine.

The checkpoint group times ``checkpoint()`` itself on generated stores
of about 2k and 20k objects (``sync="checkpoint"``, so the three fsyncs
are in): each round writes one key, then checkpoints.  The log engine's
memtable holds every live key as its image record, so a checkpoint
joins records and encodes nothing; its cost is the join, the CRC and
the writes, and it grows with the image's bytes, not with re-encoding
every key.  The group has no absolute gate: its p50s depend on the host
and its disk.
"""

import itertools

import pytest

from repro.oid import Atom
from repro.storage import (
    LogStructuredEngine,
    MemoryEngine,
    StoreJournal,
    decode_store,
    encode_store,
)
from repro.workloads.generator import WorkloadConfig, generate_database
from repro.workloads.scale import ScaleSpec, generate_scaled
from repro.xsql.evaluator import Evaluator
from repro.xsql.parser import parse_query

N_PEOPLE = 300
REFERENCE_AGE = 40
CODEC_SIZES = [50, 200]
CODEC_REFERENCE = "SELECT X FROM Employee X WHERE X.Salary > 200000"
CHECKPOINT_SIZES = [2_000, 20_000]


@pytest.mark.parametrize("n_people", CODEC_SIZES)
@pytest.mark.benchmark(group="storage-encode")
def test_encode(benchmark, n_people):
    store = generate_database(WorkloadConfig(n_people=n_people, seed=8))

    def encode():
        image = MemoryEngine()
        return encode_store(store, image)

    report = benchmark(encode)
    assert report.objects > n_people


@pytest.mark.parametrize("n_people", CODEC_SIZES)
@pytest.mark.benchmark(group="storage-decode")
def test_decode(benchmark, n_people):
    store = generate_database(WorkloadConfig(n_people=n_people, seed=8))
    image = MemoryEngine()
    encode_store(store, image)
    decoded = benchmark(lambda: decode_store(image))
    query = parse_query(CODEC_REFERENCE)
    assert (
        Evaluator(decoded).run(query).rows()
        == Evaluator(store).run(query).rows()
    )


def ingest(engine):
    """Build a people database, mirroring into *engine* if given."""
    from repro.datamodel.store import ObjectStore

    store = ObjectStore()
    if engine is not None:
        store.set_journal(StoreJournal(engine, store))
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Employee", "Salary", "Numeral")
    for i in range(N_PEOPLE):
        obj = store.create_object(
            Atom(f"p{i}"), ["Employee" if i % 3 == 0 else "Person"]
        )
        store.set_attr(obj, "Name", f"Person {i}")
        store.set_attr(obj, "Age", 20 + (i * 7) % 60)
        if i % 3 == 0:
            store.set_attr(obj, "Salary", 1000 * i)
    return store


def count_over_40(store):
    return sum(
        1
        for obj in store.extent("Person")
        if (cell := store.explicit_cell(obj, "Age")) is not None
        and cell.value.value > REFERENCE_AGE
    )


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_dict_backend(benchmark):
    store = benchmark(lambda: ingest(None))
    assert count_over_40(store) > 0


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_memory_mirror(benchmark):
    def run():
        engine = MemoryEngine()
        return ingest(engine), engine

    store, engine = benchmark(run)
    assert len(engine) > N_PEOPLE


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_wal_engine(benchmark, tmp_path):
    counter = [0]

    def run():
        counter[0] += 1
        engine = LogStructuredEngine(
            str(tmp_path / f"db{counter[0]}"), sync="never"
        )
        store = ingest(engine)
        engine.close()
        return store

    store = benchmark(run)
    assert count_over_40(store) > 0


@pytest.mark.benchmark(group="storage-recovery")
def test_open_with_wal_replay(benchmark, tmp_path):
    path = str(tmp_path / "db")
    engine = LogStructuredEngine(path, sync="never")
    reference = ingest(engine)
    engine.close()

    def recover():
        recovered_engine = LogStructuredEngine(path, sync="never")
        store = decode_store(recovered_engine)
        recovered_engine.close()
        return store

    recovered = benchmark(recover)
    assert count_over_40(recovered) == count_over_40(reference)


@pytest.mark.benchmark(group="storage-recovery")
def test_open_from_checkpoint(benchmark, tmp_path):
    path = str(tmp_path / "db")
    engine = LogStructuredEngine(path, sync="never")
    reference = ingest(engine)
    engine.checkpoint()
    engine.close()

    def recover():
        recovered_engine = LogStructuredEngine(path, sync="never")
        store = decode_store(recovered_engine)
        recovered_engine.close()
        return store

    recovered = benchmark(recover)
    assert count_over_40(recovered) == count_over_40(reference)


@pytest.mark.parametrize("n_objects", CHECKPOINT_SIZES)
@pytest.mark.benchmark(group="storage-checkpoint")
def test_checkpoint(benchmark, tmp_path, n_objects):
    path = str(tmp_path / "db")
    engine = LogStructuredEngine(path, sync="checkpoint")
    report = encode_store(
        generate_scaled(ScaleSpec(n_objects=n_objects)), engine
    )
    assert report.objects == n_objects
    engine.checkpoint()  # both slot files exist before the timed rounds
    engine.checkpoint()
    rounds = itertools.count()

    def write_and_checkpoint():
        engine.put(b"\xffbench", b"%d" % next(rounds))
        return engine.checkpoint()

    stamp = benchmark(write_and_checkpoint)
    assert stamp == engine.last_stamp()
    items = engine.items()
    engine.close()
    recovered = LogStructuredEngine(path, sync="never")
    assert recovered.recovery.checkpoint_lsn == recovered.last_stamp().lsn
    assert recovered.items() == items
    recovered.close()
