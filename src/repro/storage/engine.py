"""The ordered-KV storage-engine interface and its in-memory member.

Every database in this repository is, underneath, a set of *facts* —
extent memberships, attribute/method cells, index entries, relation
tuples — and every fact kind maps onto a contiguous range of ordered
byte keys (:mod:`repro.storage.codec` owns the layout).  This module
defines the narrow seam everything persists through:

* :class:`StorageEngine` — the abstract ordered key-value store:
  ``get``/``put``/``delete``/``range_scan`` over byte keys, plus
  *batch* commits (:class:`WriteBatch` applied atomically with a
  :class:`CommitStamp`) and explicit fsync points (``sync()``);
* :class:`MemoryEngine` — the reference implementation: a dict plus a
  lazily re-sorted key list, no durability, zero dependencies;
* :class:`~repro.storage.wal.LogStructuredEngine` (sibling module) —
  the durable member: a memtable of framed put records fronted by an
  append-only CRC-framed write-ahead log with checkpointing and crash
  recovery.

The design follows SNIPPETS.md's ``okdb`` note — an ordered key-value
store is the primitive every database is built on — and keeps the
interface small enough that an on-disk B-tree, an LSM tree, or a remote
store can slot in later without touching the data model.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import XsqlError

__all__ = [
    "StorageError",
    "CommitStamp",
    "WriteBatch",
    "StorageEngine",
    "MemoryEngine",
]


class StorageError(XsqlError):
    """A storage-engine operation failed (corruption, misuse, I/O)."""


@dataclass(frozen=True)
class CommitStamp:
    """What one committed batch was stamped with.

    ``lsn`` is the engine-assigned monotonic log sequence number;
    ``ticket`` is the store's MVCC mutation ticket at commit time, so a
    recovered store resumes its ticket sequence from there.
    """

    lsn: int = 0
    ticket: int = 0


#: Op codes inside a :class:`WriteBatch`.
OP_PUT = "put"
OP_DELETE = "del"
OP_DELETE_RANGE = "delrange"


class WriteBatch:
    """An ordered list of mutations applied atomically by ``apply()``."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: List[Tuple] = []

    def put(self, key: bytes, value: bytes = b"") -> None:
        self.ops.append((OP_PUT, key, value))

    def delete(self, key: bytes) -> None:
        self.ops.append((OP_DELETE, key))

    def delete_range(self, start: bytes, end: bytes) -> None:
        """Delete every key in ``[start, end)``."""
        self.ops.append((OP_DELETE_RANGE, start, end))

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)


class StorageEngine(ABC):
    """Ordered byte-key storage: the primitive the object store sits on.

    Keys are arbitrary ``bytes`` compared lexicographically; values are
    opaque ``bytes``.  Implementations must make ``apply()`` atomic —
    after a crash, either every op of a batch is visible or none is —
    and ``sync()`` a durability point (a no-op for volatile engines).
    """

    #: Short name used by options/REPL status lines.
    name = "abstract"

    # -- point ops ------------------------------------------------------

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """The value stored at *key*, or None."""

    def put(self, key: bytes, value: bytes = b"") -> CommitStamp:
        """Single-op convenience batch."""
        batch = WriteBatch()
        batch.put(key, value)
        return self.apply(batch)

    def delete(self, key: bytes) -> CommitStamp:
        batch = WriteBatch()
        batch.delete(key)
        return self.apply(batch)

    # -- range ops ------------------------------------------------------

    @abstractmethod
    def range_scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        reverse: bool = False,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` for keys in ``[start, end)``, in order."""

    # -- batches and durability ----------------------------------------

    @abstractmethod
    def apply(self, batch: WriteBatch, ticket: int = 0) -> CommitStamp:
        """Commit *batch* atomically; returns the assigned stamp."""

    @abstractmethod
    def sync(self) -> None:
        """Make everything committed so far durable (fsync point)."""

    @abstractmethod
    def checkpoint(self) -> CommitStamp:
        """Compact the durable representation up to the current LSN."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release resources; the engine is unusable after."""

    # -- introspection --------------------------------------------------

    @abstractmethod
    def last_stamp(self) -> CommitStamp:
        """The stamp of the most recently committed batch."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    def items(self) -> List[Tuple[bytes, bytes]]:
        """Every live ``(key, value)`` pair in key order (testing aid)."""
        return list(self.range_scan())

    def status(self) -> Dict[str, object]:
        """A JSON-friendly status line (REPL ``.storage``)."""
        stamp = self.last_stamp()
        return {
            "engine": self.name,
            "keys": len(self),
            "lsn": stamp.lsn,
            "ticket": stamp.ticket,
        }


@dataclass
class _SortedKeys:
    """The memtable's live keys as a list kept sorted at all times.

    Each new key is placed with ``bisect.insort`` and each removed key
    is found by bisection, so scans read :attr:`keys` directly.
    """

    keys: List[bytes] = field(default_factory=list)

    def add(self, key: bytes) -> None:
        bisect.insort(self.keys, key)

    def discard(self, key: bytes) -> None:
        keys = self.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            keys.pop(index)


class MemoryEngine(StorageEngine):
    """The sorted in-memory ordered-KV engine (no durability).

    This is both a usable backend (a KV mirror of the store, handy for
    tests and for staging data that will be shipped elsewhere) and, by
    a subclass that stores each key's framed put record in place of its
    value, the memtable inside
    :class:`~repro.storage.wal.LogStructuredEngine`.
    """

    name = "memory"

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._sorted = _SortedKeys()
        self._stamp = CommitStamp()
        #: Batches committed over this engine's lifetime.
        self.batches_applied = 0

    # -- point ops ------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    # -- range ops ------------------------------------------------------

    def range_scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        reverse: bool = False,
    ) -> Iterator[Tuple[bytes, bytes]]:
        data = self._data
        for key in self._window(start, end, reverse):
            yield key, data[key]

    def _window(
        self, start: Optional[bytes], end: Optional[bytes], reverse: bool
    ) -> Iterable[bytes]:
        """The live keys in ``[start, end)``, in order (a copy)."""
        keys = self._sorted.keys
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        window = keys[lo:hi]
        return reversed(window) if reverse else window

    # -- batches --------------------------------------------------------

    def apply_ops(self, ops: Iterable[Tuple]) -> None:
        """Apply :class:`WriteBatch`-shaped ops without stamping them.

        A put stores its third field as given, which is how the log
        engine's memtable keeps a framed record in place of the value.
        """
        data = self._data
        for op in ops:
            kind = op[0]
            if kind == OP_PUT:
                _kind, key, stored = op
                if key not in data:
                    self._sorted.add(key)
                data[key] = stored
            elif kind == OP_DELETE:
                _kind, key = op
                if key in data:
                    del data[key]
                    self._sorted.discard(key)
            elif kind == OP_DELETE_RANGE:
                _kind, start, end = op
                for key in self._window(start, end, False):
                    del data[key]
                    self._sorted.discard(key)
            else:  # pragma: no cover - batches are built by WriteBatch only
                raise StorageError(f"unknown batch op {kind!r}")

    def apply(self, batch: WriteBatch, ticket: int = 0) -> CommitStamp:
        self.apply_ops(batch.ops)
        self._stamp = CommitStamp(lsn=self._stamp.lsn + 1, ticket=ticket)
        self.batches_applied += 1
        return self._stamp

    # -- durability (volatile: everything is a no-op) -------------------

    def sync(self) -> None:
        pass

    def checkpoint(self) -> CommitStamp:
        return self._stamp

    def close(self) -> None:
        pass

    # -- introspection --------------------------------------------------

    def last_stamp(self) -> CommitStamp:
        return self._stamp

    def set_stamp(self, stamp: CommitStamp) -> None:
        """Restore the stamp after replay (recovery uses this)."""
        self._stamp = stamp

    def __len__(self) -> int:
        return len(self._data)
