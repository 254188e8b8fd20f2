"""Codecs: the object store as ordered key ranges, and back.

Modeled on ``ion/core/object/codec.py`` (explicit codecs between the
logical model and the wire/storage form) and the okdb note in
SNIPPETS.md (every fact kind is a contiguous ordered key range).

**Key layout.**  Keys are tuples packed by :func:`pack_key` into
order-preserving bytes.  The first component names the keyspace::

    ("s","o")                                → store options (JSON)
    ("s","c", class)                         → direct parent list (JSON)
    ("s","g", class, method, result, set, *args) → b"" (one signature)
    ("o", oid)                               → b"" (individual exists)
    ("x", class, oid)                        → b"" (direct membership)
    ("f", method, owner, *args)              → cell JSON {"s": scalar?,
                                               "v": [encoded oids]}
    ("r","d", relation)                      → column names (JSON)
    ("r","t", relation, *row)                → b"" (one tuple)
    ("v", class, method)                     → {"use": class} (JSON)
    ("i","d", method)                        → b"" (index enabled)

so one class's extent and one method's cells are each a single
``range_scan`` — which is what makes sharding extents across engines a
key-splitting problem rather than a redesign.  An index is stored as
its registry key alone: opening a store back-fills each enabled index
from the cells.  (Stores written before this layout also carry one
``("i","e", ...)`` key per index entry; nothing reads them.)

**Tuple packing.**  Each component is tagged, escaped (0x00 →
0x00 0xFF) and 0x00-terminated, FoundationDB-tuple style; 64-bit ints
are offset-encoded and floats sign-flipped so numeric components sort
numerically within their tag.  Oids pack recursively (atoms, literal
values, id-function applications), so ``unpack_key`` recovers the exact
logical key — the codec is a bijection, property-tested per fact kind.

**Journal.**  :class:`StoreJournal` is the store's write-path listener:
every fact a mutation changes arrives as one ``note_*`` call and leaves
as codec-encoded ops on the attached engine.  Each public store
mutator opens one :meth:`StoreJournal.batch`, so it commits as one
batch; an outer ``batch()`` block groups several mutators into one.
The commit stamp of every batch carries the store's MVCC mutation
ticket at commit time.
"""

from __future__ import annotations

import json
import struct
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, List, Tuple, Union

from repro.oid import Atom, FuncOid, Oid, Value
from repro.storage.engine import (
    StorageEngine,
    StorageError,
    WriteBatch,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datamodel.store import ObjectStore

__all__ = [
    "CodecError",
    "pack_key",
    "unpack_key",
    "prefix_range",
    "encode_cell_value",
    "decode_cell_value",
    "StoreJournal",
    "EncodeReport",
    "encode_store",
    "decode_store",
]


class CodecError(StorageError):
    """A key or value failed to encode/decode."""


# ---------------------------------------------------------------------------
# tuple packing
# ---------------------------------------------------------------------------

_TAG_STR = 0x02
_TAG_INT = 0x14
_TAG_BIGINT = 0x15
_TAG_FLOAT = 0x16
_TAG_BOOL = 0x17
_TAG_ATOM = 0x20
_TAG_VALUE = 0x21
_TAG_FUNC = 0x22
_TAG_END = 0x2F

_TERMINATOR = b"\x00"
_ESCAPED_ZERO = b"\x00\xff"
_I64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_INT_OFFSET = 1 << 63

KeyPart = Union[str, int, float, bool, Oid]


def _append_escaped(out: List[bytes], raw: bytes) -> None:
    out.append(raw.replace(b"\x00", _ESCAPED_ZERO))
    out.append(_TERMINATOR)


def _append_part(out: List[bytes], part: KeyPart) -> None:
    # bool before int: bool is an int subclass.
    if isinstance(part, bool):
        out.append(bytes((_TAG_BOOL, 1 if part else 0)))
    elif isinstance(part, str):
        out.append(bytes((_TAG_STR,)))
        _append_escaped(out, part.encode("utf-8"))
    elif isinstance(part, int):
        if -_INT_OFFSET <= part < _INT_OFFSET:
            out.append(bytes((_TAG_INT,)))
            out.append(_I64.pack(part + _INT_OFFSET))
        else:
            magnitude = abs(part).to_bytes(
                (abs(part).bit_length() + 7) // 8, "big"
            )
            out.append(bytes((_TAG_BIGINT, 1 if part >= 0 else 0)))
            _append_escaped(out, magnitude)
    elif isinstance(part, float):
        bits = _I64.unpack(_F64.pack(part))[0]
        # Order-preserving transform: flip the sign bit for positives,
        # flip everything for negatives.
        if bits & _INT_OFFSET:
            bits ^= 0xFFFFFFFFFFFFFFFF
        else:
            bits ^= _INT_OFFSET
        out.append(bytes((_TAG_FLOAT,)))
        out.append(_I64.pack(bits))
    elif isinstance(part, Atom):
        out.append(bytes((_TAG_ATOM,)))
        _append_escaped(out, part.name.encode("utf-8"))
    elif isinstance(part, Value):
        out.append(bytes((_TAG_VALUE,)))
        _append_part(out, part.value)
    elif isinstance(part, FuncOid):
        out.append(bytes((_TAG_FUNC,)))
        _append_escaped(out, part.functor.encode("utf-8"))
        for arg in part.args:
            _append_part(out, arg)
        out.append(bytes((_TAG_END,)))
    else:
        raise CodecError(f"cannot pack key component {part!r}")


def pack_key(parts: Tuple[KeyPart, ...]) -> bytes:
    """Pack a key tuple into order-preserving bytes."""
    out: List[bytes] = []
    for part in parts:
        _append_part(out, part)
    return b"".join(out)


def _take_escaped(raw: bytes, offset: int) -> Tuple[bytes, int]:
    pieces: List[bytes] = []
    start = offset
    while True:
        zero = raw.find(b"\x00", offset)
        if zero < 0:
            raise CodecError("unterminated key component")
        if zero + 1 < len(raw) and raw[zero + 1] == 0xFF:
            pieces.append(raw[start:zero] + b"\x00")
            offset = zero + 2
            start = offset
            continue
        pieces.append(raw[start:zero])
        return b"".join(pieces), zero + 1


def _take_part(raw: bytes, offset: int) -> Tuple[KeyPart, int]:
    if offset >= len(raw):
        raise CodecError("key underrun")
    tag = raw[offset]
    offset += 1
    if tag == _TAG_STR:
        piece, offset = _take_escaped(raw, offset)
        return piece.decode("utf-8"), offset
    if tag == _TAG_INT:
        if offset + 8 > len(raw):
            raise CodecError("truncated int component")
        value = _I64.unpack_from(raw, offset)[0] - _INT_OFFSET
        return value, offset + 8
    if tag == _TAG_BIGINT:
        sign = raw[offset]
        magnitude, offset = _take_escaped(raw, offset + 1)
        value = int.from_bytes(magnitude, "big")
        return (value if sign else -value), offset
    if tag == _TAG_FLOAT:
        if offset + 8 > len(raw):
            raise CodecError("truncated float component")
        bits = _I64.unpack_from(raw, offset)[0]
        if bits & _INT_OFFSET:
            bits ^= _INT_OFFSET
        else:
            bits ^= 0xFFFFFFFFFFFFFFFF
        return _F64.unpack(_I64.pack(bits))[0], offset + 8
    if tag == _TAG_BOOL:
        if offset >= len(raw):
            raise CodecError("truncated bool component")
        return bool(raw[offset]), offset + 1
    if tag == _TAG_ATOM:
        piece, offset = _take_escaped(raw, offset)
        return Atom(piece.decode("utf-8")), offset
    if tag == _TAG_VALUE:
        payload, offset = _take_part(raw, offset)
        if isinstance(payload, Oid):
            raise CodecError("malformed literal component")
        return Value(payload), offset
    if tag == _TAG_FUNC:
        piece, offset = _take_escaped(raw, offset)
        args: List[Oid] = []
        while True:
            if offset >= len(raw):
                raise CodecError("unterminated id-function component")
            if raw[offset] == _TAG_END:
                offset += 1
                break
            arg, offset = _take_part(raw, offset)
            if not isinstance(arg, Oid):
                raise CodecError("id-function argument must be an oid")
            args.append(arg)
        return FuncOid(piece.decode("utf-8"), tuple(args)), offset
    raise CodecError(f"unknown key tag 0x{tag:02x}")


def unpack_key(raw: bytes) -> Tuple[KeyPart, ...]:
    """Invert :func:`pack_key`."""
    parts: List[KeyPart] = []
    offset = 0
    while offset < len(raw):
        part, offset = _take_part(raw, offset)
        parts.append(part)
    return tuple(parts)


def prefix_range(parts: Tuple[KeyPart, ...]) -> Tuple[bytes, bytes]:
    """The ``[start, end)`` byte range of keys extending *parts*."""
    start = pack_key(parts)
    end = bytearray(start)
    while end and end[-1] == 0xFF:  # pragma: no cover - tags are < 0xFF
        end.pop()
    if not end:  # pragma: no cover - empty prefix means "everything"
        return start, b"\xff" * 16
    end[-1] += 1
    return start, bytes(end)


# ---------------------------------------------------------------------------
# value codecs: JSON bodies carrying oids as {"a": name} (atom),
# {"v": payload} (literal), {"f": functor, "args": [...]} (id-term)
# ---------------------------------------------------------------------------


def encode_oid(term: Oid) -> object:
    """Encode one oid into the JSON body scheme of cell values."""
    if isinstance(term, Atom):
        return {"a": term.name}
    if isinstance(term, Value):
        return {"v": term.value}
    if isinstance(term, FuncOid):
        return {"f": term.functor, "args": [encode_oid(a) for a in term.args]}
    raise CodecError(f"cannot encode {term!r}")


def decode_oid(data: object) -> Oid:
    """Invert :func:`encode_oid`."""
    if not isinstance(data, dict):
        raise CodecError(f"malformed oid entry {data!r}")
    if "a" in data:
        return Atom(data["a"])
    if "v" in data:
        return Value(data["v"])
    if "f" in data:
        return FuncOid(
            data["f"], tuple(decode_oid(a) for a in data.get("args", []))
        )
    raise CodecError(f"malformed oid entry {data!r}")


def encode_cell_value(scalar: bool, values) -> bytes:
    """The value body of one ``("f", ...)`` cell key."""
    return json.dumps(
        {
            "s": scalar,
            "v": [encode_oid(v) for v in sorted(values, key=str)],
        },
        sort_keys=True,
    ).encode("utf-8")


def decode_cell_value(raw: bytes) -> Tuple[bool, List[Oid]]:
    data = _json_value(raw)
    return bool(data["s"]), [decode_oid(v) for v in data["v"]]


def _json_bytes(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _json_value(raw: bytes) -> object:
    return json.loads(raw.decode("utf-8"))


# ---------------------------------------------------------------------------
# the journal: store mutations -> engine batches
# ---------------------------------------------------------------------------


class StoreJournal:
    """Mirrors every store mutation into an ordered-KV engine.

    The store's write path calls one ``note_*`` method per changed fact;
    each call appends codec-encoded ops to the pending batch.  The store
    wraps every public mutator in :meth:`batch`, so a mutator commits
    (and WAL-frames) as one batch; an outer :meth:`batch` block groups
    several mutators into one commit with one stamp — that is the unit
    crash recovery restores to.
    """

    def __init__(self, engine: StorageEngine, store: "ObjectStore") -> None:
        self.engine = engine
        self.store = store
        self._pending = WriteBatch()
        self._depth = 0
        #: Batches this journal has committed (REPL ``.storage``).
        self.batches_committed = 0

    # -- batching -------------------------------------------------------

    def batch(self) -> "StoreJournal":
        """``with journal.batch():`` groups every op noted inside the
        block into one commit; blocks nest."""
        return self

    def __enter__(self) -> "StoreJournal":
        self._depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, WriteBatch()
        self.engine.apply(batch, ticket=self.store.ticket)
        self.batches_committed += 1

    # -- schema ---------------------------------------------------------

    def note_options(self) -> None:
        self._pending.put(
            pack_key(("s", "o")),
            _json_bytes(
                {
                    "strict_method_namespace": (
                        self.store.catalogue.strict_method_namespace
                    ),
                    "validate_values": self.store.validate_values,
                }
            ),
        )

    def note_class(self, cls: Atom, parents: List[Atom]) -> None:
        self._pending.put(
            pack_key(("s", "c", cls)),
            _json_bytes(sorted(p.name for p in parents)),
        )

    def note_signature(
        self,
        cls: Atom,
        method: Atom,
        result: Atom,
        args: Tuple[Atom, ...],
        set_valued: bool,
    ) -> None:
        self._pending.put(
            pack_key(("s", "g", cls, method, result, set_valued) + args)
        )

    def note_resolution(self, cls: Atom, method: Atom, use: Atom) -> None:
        self._pending.put(
            pack_key(("v", cls, method)), _json_bytes({"use": use.name})
        )

    # -- instances ------------------------------------------------------

    def note_object(self, obj: Oid, present: bool = True) -> None:
        key = pack_key(("o", obj))
        if present:
            self._pending.put(key)
        else:
            self._pending.delete(key)

    def note_membership(self, cls: Atom, obj: Oid, present: bool) -> None:
        key = pack_key(("x", cls, obj))
        if present:
            self._pending.put(key)
        else:
            self._pending.delete(key)

    def note_cell(
        self,
        owner: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        old_values,
        new_values,
        scalar: bool,
        present: bool = True,
    ) -> None:
        key = pack_key(("f", method, owner) + args)
        if present:
            # The owner's ``("o", owner)`` marker comes from
            # ``note_object``, which the store calls when it makes the
            # owner's record, however the object entered.
            self._pending.put(key, encode_cell_value(scalar, new_values))
        else:
            self._pending.delete(key)

    # -- relations ------------------------------------------------------

    def note_relation(self, name: str, columns: Tuple[str, ...]) -> None:
        self._pending.put(
            pack_key(("r", "d", name)), _json_bytes(list(columns))
        )

    def note_tuple(self, name: str, row: Tuple[Oid, ...]) -> None:
        self._pending.put(pack_key(("r", "t", name) + row))

    # -- indexes --------------------------------------------------------

    def note_index(self, method: Atom, enabled: bool) -> None:
        registry = pack_key(("i", "d", method))
        if enabled:
            self._pending.put(registry)
        else:
            self._pending.delete(registry)


# ---------------------------------------------------------------------------
# whole-store encode / decode
# ---------------------------------------------------------------------------


class EncodeReport:
    """What a bulk encode covered, and what it had to leave out."""

    def __init__(self) -> None:
        self.classes = 0
        self.objects = 0
        self.cells = 0
        self.relations = 0
        self.skipped: List[str] = []


def encode_store(
    store: "ObjectStore", engine: StorageEngine
) -> EncodeReport:
    """Write *store*'s complete state into *engine* as one batch.

    Computed method implementations are not representable (they are
    Python callables / re-installed DDL) and are reported as skipped.
    """
    from repro.datamodel.catalogue import BUILTIN_CLASSES
    from repro.datamodel.hierarchy import OBJECT_CLASS

    report = EncodeReport()
    journal = StoreJournal(engine, store)
    hierarchy = store.hierarchy
    implicit = set(BUILTIN_CLASSES) | {OBJECT_CLASS}
    with journal.batch():
        journal.note_options()
        for cls in hierarchy.classes():
            if cls not in implicit:
                journal.note_class(cls, hierarchy.declared_parents(cls))
                report.classes += 1
            for signature in store.declared_signatures(cls):
                journal.note_signature(
                    cls,
                    signature.method,
                    signature.result,
                    tuple(signature.type_expr.args),
                    signature.set_valued,
                )
        for obj in store._record_owners():
            if not store.catalogue.is_class(obj):
                journal.note_object(obj)
                # Explicit memberships only: implicit classes (Object,
                # the literal builtins) are re-derived by the catalogue
                # and must not become explicit instance-of facts.
                for cls in sorted(
                    store.explicit_classes_of(obj), key=lambda a: a.name
                ):
                    journal.note_membership(cls, obj, True)
            report.objects += 1
        # Column by column, as the ("f", method, owner, *args) keys lie.
        for method in store._cell_methods():
            for (owner, args), cell in store._column(method).items():
                journal.note_cell(
                    owner,
                    method,
                    args,
                    frozenset(),
                    cell.as_set(),
                    not cell.set_valued,
                )
                report.cells += 1
        for name, relation in sorted(store.relations().items()):
            journal.note_relation(name, relation.column_names)
            for row in relation.sorted_rows():
                journal.note_tuple(name, tuple(row))
            report.relations += 1
        for (cls, method), use in sorted(
            store.resolver._resolutions.items(), key=str
        ):
            journal.note_resolution(cls, method, use)
        for (cls, method) in sorted(store.schema.implementations, key=str):
            report.skipped.append(
                f"method implementation {method} on {cls} (re-install "
                f"implementations after loading)"
            )
        for method in sorted(store.indexed_methods(), key=str):
            journal.note_index(method, True)
    return report


def _scan(engine: StorageEngine, prefix: Tuple[KeyPart, ...]):
    start, end = prefix_range(prefix)
    for raw_key, raw_value in engine.range_scan(start, end):
        yield unpack_key(raw_key), raw_value


def decode_store(engine: StorageEngine) -> "ObjectStore":
    """Rebuild an :class:`ObjectStore` from an engine's key ranges.

    One pass: the schema loads as one DDL edit (classes in dependency
    order, signatures, resolutions), then the data as one mutation
    through the store's write primitives, in key order (records,
    memberships, cells column by column).  The fresh store has no sinks
    and no pins; every fact is checked as the public mutators check it,
    as this is input from disk.  At the end the ticket is raised to the
    engine's last commit stamp, so the recovered store resumes the ticket
    sequence it committed.
    """
    from repro.datamodel.objects import ScalarCell, SetCell
    from repro.datamodel.signatures import Signature, TypeExpr
    from repro.datamodel.store import ObjectStore

    raw_options = engine.get(pack_key(("s", "o")))
    options = {} if raw_options is None else _json_value(raw_options)
    store = ObjectStore(
        strict_method_namespace=bool(
            options.get("strict_method_namespace", False)
        ),
        validate_values=False,  # re-enabled below, after the rebuild
    )
    parents = {
        parts[2]: [Atom(name) for name in _json_value(raw)]
        for parts, raw in _scan(engine, ("s", "c"))
    }
    signatures = [
        Signature(method, TypeExpr(cls, tuple(args), result, bool(set_valued)))
        for (_s, _g, cls, method, result, set_valued, *args), _raw
        in _scan(engine, ("s", "g"))
    ]

    def load_schema(schema) -> None:
        try:
            classes = list(TopologicalSorter(parents).static_order())
        except CycleError as exc:
            raise CodecError(f"cyclic classes: {exc.args[1]}") from None
        for cls in classes:
            if cls in parents:
                schema.hierarchy.add_class(cls, parents[cls])
            elif cls not in schema.hierarchy:
                raise CodecError(f"parent class {cls} is not declared")
        for signature in signatures:
            schema.add_signature(signature)
        for (_v, cls, method), raw in _scan(engine, ("v",)):
            use = Atom(_json_value(raw)["use"])
            schema.resolver.declare_resolution(cls, method, use)

    schema = store._ddl(
        load_schema, known=[*parents, *(sig.method for sig in signatures)]
    )
    with store.write_lock, store._mutation():
        for (_o, obj), _raw in _scan(engine, ("o",)):
            schema.catalogue.check_individual(obj)
            store._record(obj)
            store._known_add(obj)
        for (_x, cls, obj), _raw in _scan(engine, ("x",)):
            schema.hierarchy.require(cls)
            schema.catalogue.check_individual(obj)
            store._put_membership(obj, cls, True)
        for (_f, method, owner, *args), raw in _scan(engine, ("f",)):
            scalar, values = decode_cell_value(raw)
            if scalar and len(values) != 1:
                raise CodecError(
                    f"scalar cell {method} of {owner} has {len(values)} values"
                )
            args = tuple(args)
            cell = ScalarCell(values[0]) if scalar else SetCell(frozenset(values))
            store._check_write(owner, method, args, cell)
            store._put_cell(owner, method, args, cell)

    for parts, raw in _scan(engine, ("r", "d")):
        store.declare_relation(parts[2], _json_value(raw))
    for parts, _raw in _scan(engine, ("r", "t")):
        store.insert_tuple(parts[2], list(parts[3:]))
    for parts, _raw in _scan(engine, ("i", "d")):
        store.enable_index(parts[2])
    store.validate_values = bool(options.get("validate_values", False))
    store.restore_version_ticket(engine.last_stamp().ticket)
    return store
