"""The log-structured engine: WAL framing, checkpoints, crash recovery.

On disk a database is a directory::

    <root>/
      wal.log               write-ahead log (one record per batch)
      checkpoint.snap       checkpoint image slot 0 (optional)
      checkpoint.alt.snap   checkpoint image slot 1 (optional)

**WAL record framing.**  The log starts with a 16-byte header, the
magic and the *base LSN*: the LSN of the checkpoint image this log
continues (0 for a log that starts from an empty database).  Each
committed batch is one record::

    u32 payload_length | u32 crc32(payload) | payload
    payload := u64 lsn | u64 ticket | u32 op_count | op*
    op      := 'P' u32 klen key u32 vlen value      (put)
             | 'D' u32 klen key                     (delete)
             | 'R' u32 len start u32 len end        (delete_range)

A zero-length frame (eight zero bytes) is the end-of-log marker.  Each
append writes ``record + marker`` at the log's logical end, so the
bytes after the marker — left over from before the last rewind — are
never read.  ``close()`` truncates the file to its logical end, so a
closed database's log is exactly header plus records.

LSNs are assigned at commit and strictly monotonic for the lifetime of
the database (they survive checkpoints).  ``ticket`` is the store's MVCC
mutation ticket at commit time; with the LSN it is the commit stamp,
from which a recovered store resumes its ticket sequence.

**Memtable.**  Each live key maps to its put record, ``'P' u32 klen key
u32 vlen value``: the op bytes the WAL logged for the key's last put,
which are also what the checkpoint image stores for it.  A commit
encodes each op once and hands the same record bytes to the log and the
memtable; image load and WAL replay keep records sliced straight from
their payloads.  ``get`` and ``range_scan`` slice the value out.

**Checkpoint protocol.**  ``checkpoint()`` fsyncs the log, then writes
the whole memtable as one all-put batch (same length+CRC framing, one
frame) into the image slot that does *not* hold the newest valid image,
overwriting it in place, and fsyncs it.  The payload is the batch head
plus the memtable's records joined in key order: a checkpoint encodes
nothing, so it costs one join, one CRC and the writes.  A torn write
can only damage the older image.  It then rewinds the log in place: one
write of a header carrying the new base LSN plus an end-of-log marker
at offset 0, and an fsync.  No file is renamed, unlinked or truncated,
so a checkpoint frees no disk blocks.  The directory is fsynced once
when ``wal.log`` or a slot file is first created.  ``status()`` reports
the newest image's slot file and framed length (``image_slot``,
``image_bytes``); the slot file itself may be longer, holding a stale
tail of an older image.

**Recovery.**  Replay loads the valid slot with the highest LSN (a slot
is valid iff its framed payload is complete and passes its CRC; a stale
tail past the framed length is ignored), then scans the WAL from the
header: a record is applied iff its frame is complete, its CRC matches,
and its LSN continues the sequence from ``base + 1``; records at or
below the image's LSN (left by a crash between the slot write and the
rewind) are skipped.  The end-of-log marker ends replay cleanly; the
first torn or corrupt record ends it early — everything before it is
exactly the last durably committed batch, and the tail is cut off
before appending resumes.  A header cut short reads as an empty log
that continues the newest image.  Recovery refuses to guess: a newest
valid image older than the log's base LSN raises :class:`StorageError`.
The image the log continues is then corrupt or missing, and loading the
older slot would silently drop every batch between the two checkpoints.
No valid slot at all under a base LSN of 0 is a torn first checkpoint:
the log still holds every batch.  Recovering an already-recovered
database is a no-op: ``recover(recover(wal)) == recover(wal)``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional, Tuple

from repro.storage.engine import (
    OP_DELETE,
    OP_DELETE_RANGE,
    OP_PUT,
    CommitStamp,
    MemoryEngine,
    StorageEngine,
    StorageError,
    WriteBatch,
)

__all__ = [
    "RecoveryReport",
    "LogStructuredEngine",
    "WAL_MAGIC",
    "WAL_HEADER_SIZE",
    "CKP_MAGIC",
    "CKP_SLOTS",
]

WAL_MAGIC = b"XSQLWAL4"
CKP_MAGIC = b"XSQLCKP4"

_WAL_HEADER = struct.Struct(">8sQ")  # magic, base lsn
#: Bytes of the WAL header; an empty log is exactly this long.
WAL_HEADER_SIZE = _WAL_HEADER.size
_FRAME = struct.Struct(">II")  # payload length, crc32(payload)
#: The end-of-log marker: a zero-length frame.
_END = _FRAME.pack(0, 0)
#: The two checkpoint image slots, in the order they are first written.
CKP_SLOTS = ("checkpoint.snap", "checkpoint.alt.snap")
# lsn, mvcc ticket, op count
_BATCH_HEAD = struct.Struct(">QQI")
_U32 = struct.Struct(">I")
#: A put record's op byte and two length fields: its value starts this
#: many bytes past the key's length.
_PUT_FIXED = 1 + 2 * _U32.size
#: Bytes an image slot holds before the image payload.
_SLOT_HEAD = len(CKP_MAGIC) + _FRAME.size

#: ``sync`` policies: fsync every commit, only at checkpoints/close, or
#: never (tests and throwaway stores).
SYNC_MODES = ("commit", "checkpoint", "never")


@dataclass
class RecoveryReport:
    """What recovery found and did — the crash-recovery audit trail."""

    path: str = ""
    checkpoint_lsn: int = 0
    checkpoint_keys: int = 0
    replayed_batches: int = 0
    replayed_ops: int = 0
    skipped_batches: int = 0
    last_lsn: int = 0
    #: Byte offset the WAL's logical end was cut back to (None = clean
    #: tail).
    truncated_at: Optional[int] = None
    #: Why replay stopped early ('' = reached a clean end of log).
    torn_reason: str = ""

    def lines(self) -> List[str]:
        out = [
            f"recovery of {self.path}",
            f"  checkpoint: lsn={self.checkpoint_lsn} "
            f"keys={self.checkpoint_keys}",
            f"  replayed: {self.replayed_batches} batch(es), "
            f"{self.replayed_ops} op(s), skipped={self.skipped_batches}",
            f"  last committed lsn: {self.last_lsn}",
        ]
        if self.truncated_at is not None:
            out.append(
                f"  torn tail: {self.torn_reason}; "
                f"truncated WAL to {self.truncated_at} byte(s)"
            )
        return out


def _batch_head(stamp: CommitStamp, op_count: int) -> bytes:
    return _BATCH_HEAD.pack(stamp.lsn, stamp.ticket, op_count)


def _put_record(key: bytes, value: bytes) -> bytes:
    """A put op's bytes: its WAL op and, unchanged, its image record."""
    return b"".join(
        (b"P", _U32.pack(len(key)), key, _U32.pack(len(value)), value)
    )


def _encode_batch(
    batch: WriteBatch, stamp: CommitStamp
) -> Tuple[bytes, List[Tuple]]:
    """The batch's WAL payload, and its ops with each put's value
    replaced by the put's record (what the memtable stores)."""
    parts = [_batch_head(stamp, len(batch.ops))]
    ops = []
    for op in batch.ops:
        kind = op[0]
        if kind == OP_PUT:
            _k, key, value = op
            record = _put_record(key, value)
            parts.append(record)
            op = (OP_PUT, key, record)
        elif kind == OP_DELETE:
            _k, key = op
            parts += (b"D", _U32.pack(len(key)), key)
        elif kind == OP_DELETE_RANGE:
            _k, start, end = op
            parts += (b"R", _U32.pack(len(start)), start)
            parts += (_U32.pack(len(end)), end)
        else:  # pragma: no cover - WriteBatch only emits the three kinds
            raise StorageError(f"unknown batch op {kind!r}")
        ops.append(op)
    return b"".join(parts), ops


def _decode_batch(payload: bytes) -> Tuple[CommitStamp, List[Tuple]]:
    """A batch payload's stamp and ops, each put carrying its record
    sliced from *payload* in place of the value."""
    lsn, ticket, op_count = _BATCH_HEAD.unpack_from(payload, 0)
    offset = _BATCH_HEAD.size
    size = len(payload)
    ops = []

    def length_at(at: int) -> int:
        if at + 4 > size:
            raise StorageError("batch payload underrun")
        return _U32.unpack_from(payload, at)[0]

    for _ in range(op_count):
        kind = payload[offset : offset + 1]
        if kind not in (b"P", b"D", b"R"):
            raise StorageError(f"unknown op byte {kind!r} in WAL record")
        key_at = offset + 1 + _U32.size
        key_end = key_at + length_at(offset + 1)
        key = payload[key_at:key_end]
        if kind == b"D":
            end = key_end
            op = (OP_DELETE, key)
        else:
            end = key_end + 4 + length_at(key_end)
            if kind == b"P":
                op = (OP_PUT, key, payload[offset:end])
            else:
                op = (OP_DELETE_RANGE, key, payload[key_end + 4 : end])
        if end > size:
            raise StorageError("batch payload underrun")
        ops.append(op)
        offset = end
    if offset != size:
        raise StorageError("trailing bytes in WAL record payload")
    return CommitStamp(lsn=lsn, ticket=ticket), ops


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class _RecordMemtable(MemoryEngine):
    """The log engine's memtable: each live key maps to its put record.

    The record ``'P' u32 klen key u32 vlen value`` is the bytes the WAL
    logged for the key's last put and exactly what the checkpoint image
    stores for it, so a checkpoint only joins records and encodes
    nothing.  Reads slice the value out of the record.  Ops come in
    through :meth:`~MemoryEngine.apply_ops` in the shape
    :func:`_encode_batch` and :func:`_decode_batch` return.
    """

    def get(self, key: bytes) -> Optional[bytes]:
        record = self._data.get(key)
        return None if record is None else record[_PUT_FIXED + len(key) :]

    def range_scan(self, start=None, end=None, reverse=False):
        data = self._data
        for key in self._window(start, end, reverse):
            yield key, data[key][_PUT_FIXED + len(key) :]

    def image(self) -> bytes:
        """The checkpoint payload: every record in key order behind the
        batch head of the last stamp."""
        parts = [_batch_head(self.last_stamp(), len(self._data))]
        parts += map(self._data.__getitem__, self._sorted.keys)
        return b"".join(parts)


def _read_image(path: Path) -> Optional[bytes]:
    """The slot's framed payload, or ``None`` if it holds no valid image.

    Reads exactly the framed length: a slot overwritten by a shorter
    image keeps a stale tail that is never looked at.
    """
    blob = path.read_bytes()
    if len(blob) < _SLOT_HEAD or not blob.startswith(CKP_MAGIC):
        return None
    length, crc = _FRAME.unpack_from(blob, len(CKP_MAGIC))
    payload = blob[_SLOT_HEAD : _SLOT_HEAD + length]
    if (
        length < _BATCH_HEAD.size
        or len(payload) != length
        or zlib.crc32(payload) != crc
    ):
        return None
    return payload


def _write_at(handle: IO[bytes], data: bytes, offset: int) -> None:
    """Write all of *data* at *offset* of an open file, in place."""
    view = memoryview(data)
    while view:
        written = os.pwrite(handle.fileno(), view, offset)
        view = view[written:]
        offset += written


def _sync_dir(path: Path) -> None:
    """Make a file's creation in *path* durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class LogStructuredEngine(StorageEngine):
    """An ordered-KV engine backed by a write-ahead log on disk.

    Reads are served from an in-memory memtable of put records; every
    committed batch is first framed into ``wal.log``.  Opening a
    directory that already holds a database *is* crash recovery — there
    is no separate recovery entry point to forget to call.
    """

    name = "log"

    def __init__(
        self,
        path: os.PathLike,
        sync: str = "checkpoint",
    ) -> None:
        if sync not in SYNC_MODES:
            raise StorageError(
                f"unknown sync mode {sync!r}; choose from {SYNC_MODES}"
            )
        self.root = Path(path)
        self.root.mkdir(parents=True, exist_ok=True)
        self.sync_mode = sync
        self._mem = _RecordMemtable()
        self._closed = False
        self._checkpoint_lsn = 0
        #: Index into :data:`CKP_SLOTS` of the newest valid image, and
        #: that image's framed length (magic included).
        self._slot: Optional[int] = None
        self._image_bytes = 0
        self.recovery = RecoveryReport(path=str(self.root))
        self._load_checkpoint()
        created = not self._wal_path.exists()
        fd = os.open(self._wal_path, os.O_RDWR | os.O_CREAT, 0o644)
        self._wal: IO[bytes] = open(fd, "r+b", buffering=0)
        self._wal_offset = WAL_HEADER_SIZE
        try:
            self._replay_wal(created)
        except BaseException:
            self._wal.close()
            raise
        if created and self._do_sync:
            _sync_dir(self.root)

    # -- paths ----------------------------------------------------------

    @property
    def _wal_path(self) -> Path:
        return self.root / "wal.log"

    def _slot_path(self, index: int) -> Path:
        return self.root / CKP_SLOTS[index]

    @property
    def _do_sync(self) -> bool:
        return self.sync_mode != "never"

    # -- recovery -------------------------------------------------------

    def _load_checkpoint(self) -> None:
        """Load the valid image slot with the highest LSN, if any."""
        images = []
        for index in range(len(CKP_SLOTS)):
            path = self._slot_path(index)
            if not path.exists():
                continue
            payload = _read_image(path)
            if payload is not None:
                lsn = _BATCH_HEAD.unpack_from(payload, 0)[0]
                images.append((lsn, index, payload))
        if not images:
            # Either no checkpoint was ever taken or the first one was
            # torn; the log's base LSN tells the two from a lost image.
            return
        _lsn, self._slot, payload = max(images)
        self._image_bytes = _SLOT_HEAD + len(payload)
        stamp, ops = _decode_batch(payload)
        self._mem.apply_ops(ops)
        self._mem.set_stamp(stamp)
        self._checkpoint_lsn = stamp.lsn
        self.recovery.checkpoint_lsn = stamp.lsn
        self.recovery.checkpoint_keys = len(self._mem)
        self.recovery.last_lsn = stamp.lsn

    def _replay_wal(self, created: bool) -> None:
        path = self._wal_path
        blob = path.read_bytes()
        report = self.recovery
        if len(blob) < WAL_HEADER_SIZE:
            if not WAL_MAGIC.startswith(blob[: len(WAL_MAGIC)]):
                raise StorageError(f"{path} is not a WAL (bad magic)")
            # A fresh log, or a header cut short while the log was being
            # created: an empty log that continues the newest image.
            if not created:
                report.torn_reason = "torn WAL header"
                report.truncated_at = WAL_HEADER_SIZE
            self._rewind(self._checkpoint_lsn)
            return
        magic, base = _WAL_HEADER.unpack_from(blob, 0)
        if magic != WAL_MAGIC:
            raise StorageError(f"{path} is not a WAL (bad magic)")
        if base > self._checkpoint_lsn:
            raise StorageError(
                f"{path} continues the checkpoint at LSN {base}, but the "
                f"newest valid image is at LSN {self._checkpoint_lsn}"
            )
        offset = good_end = WAL_HEADER_SIZE
        last_lsn = base
        while True:
            if offset == len(blob):
                break  # clean end of a closed log
            if offset + _FRAME.size > len(blob):
                report.torn_reason = "torn frame header"
                break
            length, crc = _FRAME.unpack_from(blob, offset)
            if length == 0:
                break  # end-of-log marker
            body_start = offset + _FRAME.size
            if body_start + length > len(blob):
                report.torn_reason = "torn record body"
                break
            payload = blob[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                report.torn_reason = "record CRC mismatch"
                break
            try:
                stamp, ops = _decode_batch(payload)
            except StorageError as exc:
                report.torn_reason = f"undecodable record ({exc})"
                break
            if stamp.lsn != last_lsn + 1:
                report.torn_reason = (
                    f"LSN gap (expected {last_lsn + 1}, found {stamp.lsn})"
                )
                break
            if stamp.lsn <= self._checkpoint_lsn:
                # Left by a crash between the slot write and the rewind:
                # already in the image, skip it.
                report.skipped_batches += 1
            else:
                self._mem.apply_ops(ops)
                self._mem.set_stamp(stamp)
                report.replayed_batches += 1
                report.replayed_ops += len(ops)
            last_lsn = stamp.lsn
            offset = body_start + length
            good_end = offset
        report.last_lsn = self._mem.last_stamp().lsn
        if last_lsn < self._checkpoint_lsn:
            # The log stops short of the image it predates: the image
            # holds all of it, so finish the interrupted rewind.
            if report.torn_reason:
                report.truncated_at = WAL_HEADER_SIZE
            self._rewind(self._checkpoint_lsn)
        else:
            self._wal_offset = good_end
            if report.torn_reason:
                report.truncated_at = good_end
                self._wal.truncate(good_end)
                if self._do_sync:
                    os.fsync(self._wal.fileno())

    def _rewind(self, base: int) -> None:
        """Empty the log in place: a new header and an end marker at 0."""
        _write_at(self._wal, _WAL_HEADER.pack(WAL_MAGIC, base) + _END, 0)
        if self._do_sync:
            os.fsync(self._wal.fileno())
        self._wal_offset = WAL_HEADER_SIZE

    # -- point/range reads (memtable) -----------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self._mem.get(key)

    def range_scan(self, start=None, end=None, reverse=False):
        return self._mem.range_scan(start, end, reverse)

    # -- commits --------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(f"engine over {self.root} is closed")

    def apply(self, batch: WriteBatch, ticket: int = 0) -> CommitStamp:
        self._require_open()
        stamp = CommitStamp(lsn=self._mem.last_stamp().lsn + 1, ticket=ticket)
        payload, ops = _encode_batch(batch, stamp)
        record = _frame(payload)
        _write_at(self._wal, record + _END, self._wal_offset)
        if self.sync_mode == "commit":
            os.fsync(self._wal.fileno())
        self._wal_offset += len(record)
        self._mem.apply_ops(ops)
        self._mem.set_stamp(stamp)
        return stamp

    def sync(self) -> None:
        self._require_open()
        if self.sync_mode != "never":
            os.fsync(self._wal.fileno())

    def wal_size(self) -> int:
        """The WAL's logical size: header plus committed records."""
        return self._wal_offset

    # -- checkpointing --------------------------------------------------

    def checkpoint(self) -> CommitStamp:
        """Write the memtable into the older image slot, then rewind the log.

        Every write is in place: a checkpoint renames, unlinks and
        truncates nothing.
        """
        self._require_open()
        self.sync()
        stamp = self._mem.last_stamp()
        payload = self._mem.image()
        head = CKP_MAGIC + _FRAME.pack(len(payload), zlib.crc32(payload))
        # The slot becomes the newest image only once its write and fsync
        # have succeeded: a failed write is retried into the same slot,
        # never into the one the log still continues.
        target = 0 if self._slot is None else 1 - self._slot
        self._overwrite_slot(self._slot_path(target), head, payload)
        self._slot = target
        self._image_bytes = len(head) + len(payload)
        self._rewind(stamp.lsn)
        self._checkpoint_lsn = stamp.lsn
        return stamp

    def _overwrite_slot(self, path: Path, head: bytes, payload: bytes) -> None:
        """Overwrite an image slot in place, from offset 0, untruncated."""
        created = not path.exists()
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        with open(fd, "r+b") as handle:
            handle.write(head)
            handle.write(payload)
            handle.flush()
            if self._do_sync:
                os.fsync(handle.fileno())
        if created and self._do_sync:
            _sync_dir(self.root)

    def close(self) -> None:
        if self._closed:
            return
        # Cut the end marker and any stale bytes past it: a closed log
        # is exactly header plus records.
        self._wal.truncate(self._wal_offset)
        if self._do_sync:
            os.fsync(self._wal.fileno())
        self._wal.close()
        self._closed = True

    # -- introspection --------------------------------------------------

    def last_stamp(self) -> CommitStamp:
        return self._mem.last_stamp()

    def __len__(self) -> int:
        return len(self._mem)

    def status(self):
        info = super().status()
        info.update(
            {
                "path": str(self.root),
                "sync": self.sync_mode,
                "wal_bytes": self._wal_offset,
                "checkpoint_lsn": self._checkpoint_lsn,
                "image_bytes": self._image_bytes,
                "image_slot": (
                    None if self._slot is None else CKP_SLOTS[self._slot]
                ),
            }
        )
        return info
