"""Pluggable ordered-KV storage engines for the object store.

The package re-founds persistence on one narrow seam (see
``docs/STORAGE.md``):

* :mod:`repro.storage.engine` — the :class:`StorageEngine` interface
  (ordered byte keys, atomic batches, fsync points) and the in-memory
  :class:`MemoryEngine`;
* :mod:`repro.storage.wal` — the durable :class:`LogStructuredEngine`:
  CRC-framed write-ahead log, monotonic LSNs, checkpoints, and crash
  recovery to the last committed batch;
* :mod:`repro.storage.codec` — the key layout (every fact kind is a
  contiguous key range) and the :class:`StoreJournal` that mirrors the
  store's write path into an engine, one batch per store mutator;
* :mod:`repro.storage.options` — the frozen :class:`StorageOptions`
  record backing ``Session.open(path, engine=...)``.

Everyday use goes through the session::

    session = Session.open("company.db")        # recover or create
    session.query("SELECT ...")
    session.checkpoint()                        # durable compaction
    session.close()
"""

from repro.storage.codec import (
    CodecError,
    EncodeReport,
    StoreJournal,
    decode_store,
    encode_store,
    pack_key,
    prefix_range,
    unpack_key,
)
from repro.storage.engine import (
    CommitStamp,
    MemoryEngine,
    StorageEngine,
    StorageError,
    WriteBatch,
)
from repro.storage.options import BACKENDS, StorageOptions, make_engine
from repro.storage.wal import LogStructuredEngine, RecoveryReport

__all__ = [
    "StorageEngine",
    "MemoryEngine",
    "LogStructuredEngine",
    "WriteBatch",
    "CommitStamp",
    "StorageError",
    "CodecError",
    "RecoveryReport",
    "StoreJournal",
    "EncodeReport",
    "StorageOptions",
    "BACKENDS",
    "make_engine",
    "encode_store",
    "decode_store",
    "pack_key",
    "unpack_key",
    "prefix_range",
]
