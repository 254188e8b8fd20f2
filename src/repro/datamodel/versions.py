"""MVCC versions: tickets, copy-on-write pre-image chains, snapshot views.

A store's version is two facts: the mutation **ticket** and the
published schema value.  This module builds snapshot isolation on them:

* every mutation of an :class:`~repro.datamodel.store.ObjectStore`
  advances a monotone **ticket** under the store's write lock;
* while at least one snapshot is **pinned**, each mutator records the
  **pre-image** of whatever it is about to overwrite into a per-key
  chain ``[(ticket, pre), ...]`` *before* touching the live structure;
* a :class:`StoreView` pinned at ticket *s* reads the live structure
  first and then consults the chain — the smallest entry with
  ``ticket > s`` holds exactly the value at *s*, and the ordering
  protocol (writers chain-then-mutate, readers live-then-chain, chain
  wins) makes every interleaving consistent without reader locks;
* releasing the last pin drops all chains in O(1); with pins remaining,
  entries at or below the oldest pin are swept (lists are swapped, never
  mutated in place, so concurrent readers keep a consistent view).

Recording costs nothing while no snapshot is pinned, and a *skip-append*
rule bounds chain growth while one is: a new pre-image is recorded only
if no existing entry already covers every pin (i.e. unless the chain's
last ticket exceeds the newest pin), so each key gains at most one entry
per pin era no matter how often it is rewritten.

Writers never block pinned readers: reads take no lock at all.  They
rely on CPython-atomic snapshots of live containers (``dict.copy``,
``set(...)``, ``list(d.items())`` are single C calls under the GIL)
followed by chain overlays.  Acquiring a *new* pin does synchronize with
the write lock, so pins always align with mutator boundaries.

The schema needs no chain: it is one immutable value
(:class:`~repro.datamodel.store.Schema`) that DDL replaces by a single
assignment under the write lock.  A pin captures the published schema
reference alongside its ticket, so a view reads schema and data at one
version, and DDL is atomic — a failed edit publishes nothing.  The
concurrent differential fuzzer (:mod:`repro.difftest.concurrent`)
interleaves DDL with data-plane writes against snapshot readers.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from operator import itemgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.datamodel.indexes import AttributeIndexes
from repro.datamodel.objects import (
    Cell,
    CellKey,
    ObjectRecord,
    ScalarCell,
    SetCell,
)
from repro.datamodel.store import (
    ObjectStore,
    OidLike,
    Schema,
    _atom,
    _count_individuals,
)
from repro.errors import (
    RelationalError,
    SnapshotReadOnlyError,
    UnknownClassError,
)
from repro.oid import Atom, FuncOid, Oid, oid as as_oid, term_sort_key

__all__ = [
    "SnapshotPin",
    "MvccHistory",
    "FrozenRelation",
    "StoreView",
]


#: One pre-image chain entry: the mutation ticket and the value that was
#: current immediately *before* that mutation.
_Entry = Tuple[int, Any]
_entry_ticket = itemgetter(0)


def _resolve(chain: Sequence[_Entry], ticket: int) -> Tuple[bool, Any]:
    """The pre-image governing *ticket*, if any chain entry applies.

    Entries are ascending by ticket; the first entry whose ticket
    exceeds *ticket* recorded the state as of *ticket*.
    """
    idx = bisect_right(chain, ticket, key=_entry_ticket)
    if idx < len(chain):
        return True, chain[idx][1]
    return False, None


def _cell(values: FrozenSet[Oid], set_valued: bool) -> Cell:
    """The cell a chained pre-image ``(values, set-valued)`` stands for."""
    return SetCell(values) if set_valued else ScalarCell(next(iter(values)))


class SnapshotPin:
    """A refcounted pin on one committed ticket and its schema value."""

    __slots__ = ("history", "ticket", "schema", "_released")

    def __init__(
        self, history: "MvccHistory", ticket: int, schema: Schema
    ) -> None:
        self.history = history
        self.ticket = ticket
        self.schema = schema
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the pin (idempotent); may trigger chain GC."""
        if not self._released:
            self._released = True
            self.history._unpin(self.ticket)

    def __enter__(self) -> "SnapshotPin":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "pinned"
        return f"SnapshotPin(v{self.ticket}, {state})"


class MvccHistory:
    """Per-store MVCC bookkeeping: ticket, pins, and pre-image chains.

    All writes happen under :attr:`lock` (an :class:`~threading.RLock`,
    because mutators nest — ``create_object`` calls ``add_instance``).
    Reads never take it.
    """

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self.lock = threading.RLock()
        #: Monotone mutation counter; advanced once per mutator call.
        self.ticket = 0
        #: pinned ticket -> refcount
        self._pins: Dict[int, int] = {}
        self._reset_chains()

    def _reset_chains(self) -> None:
        self._cell_chains: Dict[Oid, Dict[CellKey, List[_Entry]]] = {}
        self._membership_chains: Dict[Oid, Dict[Atom, List[_Entry]]] = {}
        #: class -> objects whose membership in it changed since the
        #: oldest pin (the extent-overlay index).
        self._membership_dirty: Dict[Atom, Set[Oid]] = {}
        self._known_chains: Dict[Oid, List[_Entry]] = {}
        #: obj -> whether it held a record (an object of its own, cells
        #: or not) before each change: creation and purge.
        self._record_chains: Dict[Oid, List[_Entry]] = {}
        self._relation_chains: Dict[str, List[_Entry]] = {}

    # ------------------------------------------------------------------
    # versions and pins
    # ------------------------------------------------------------------

    def advance(self) -> int:
        """Next mutation ticket (callers hold :attr:`lock`)."""
        self.ticket += 1
        return self.ticket

    def restore(self, ticket: int) -> None:
        """Adopt a recovered ticket (checkpoint/WAL replay)."""
        with self.lock:
            self.ticket = max(self.ticket, ticket)

    def pin(self) -> SnapshotPin:
        """Pin the current committed version.

        Takes the write lock, so the pin aligns with a mutator boundary
        and captures the ticket with the schema value published at it.
        """
        with self.lock:
            ticket = self.ticket
            self._pins[ticket] = self._pins.get(ticket, 0) + 1
            schema = self._store.schema
        return SnapshotPin(self, ticket, schema)

    def _unpin(self, ticket: int) -> None:
        with self.lock:
            count = self._pins.get(ticket, 0)
            if count > 1:
                self._pins[ticket] = count - 1
                return
            self._pins.pop(ticket, None)
            self._gc()

    @property
    def recording(self) -> bool:
        """Are pre-images being chained (any snapshot pinned)?"""
        return bool(self._pins)

    # ------------------------------------------------------------------
    # pre-image recording (callers hold the lock and have advanced)
    # ------------------------------------------------------------------

    def _covered(self, chain: List[_Entry]) -> bool:
        """Skip-append: does the chain already serve every current pin?

        A pin at *s* needs the first entry with ``ticket > s``; if the
        chain's last entry exceeds the newest pin, every pin already has
        one, and recording another pre-image would be dead weight.
        """
        return bool(chain) and chain[-1][0] > max(self._pins)

    def record_cell(
        self, owner: Oid, key: CellKey, cell: Optional[Cell]
    ) -> None:
        if not self._pins:
            return
        per = self._cell_chains.setdefault(owner, {})
        chain = per.setdefault(key, [])
        if self._covered(chain):
            return
        pre = None if cell is None else (cell.as_set(), cell.set_valued)
        chain.append((self.ticket, pre))

    def record_membership(
        self, obj: Oid, cls: Atom, was_member: bool
    ) -> None:
        if not self._pins:
            return
        per = self._membership_chains.setdefault(obj, {})
        chain = per.setdefault(cls, [])
        if self._covered(chain):
            return
        chain.append((self.ticket, was_member))
        self._membership_dirty.setdefault(cls, set()).add(obj)

    def record_known(self, obj: Oid, was_known: bool) -> None:
        if self._pins:
            self._chain_flag(self._known_chains, obj, was_known)

    def record_record(self, obj: Oid, existed: bool) -> None:
        if self._pins:
            self._chain_flag(self._record_chains, obj, existed)

    def _chain_flag(
        self, chains: Dict[Oid, List[_Entry]], obj: Oid, before: bool
    ) -> None:
        chain = chains.setdefault(obj, [])
        if not self._covered(chain):
            chain.append((self.ticket, before))

    def record_relation(self, name: str, relation) -> None:
        if not self._pins:
            return
        chain = self._relation_chains.setdefault(name, [])
        if self._covered(chain):
            return
        pre = (
            None
            if relation is None
            else (relation.column_names, relation.rows())
        )
        chain.append((self.ticket, pre))

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _gc(self) -> None:
        """Drop chain entries no remaining pin can reach.

        With no pins left everything resets in O(1).  Otherwise entries
        at or below the oldest pin are swept; surviving lists and dicts
        are rebuilt and swapped in whole, never mutated in place, so a
        reader holding a reference keeps a consistent (if stale) chain.
        """
        if not self._pins:
            self._reset_chains()
            return
        floor = min(self._pins)

        def sweep(chain: List[_Entry]) -> List[_Entry]:
            return [entry for entry in chain if entry[0] > floor]

        cells: Dict[Oid, Dict[CellKey, List[_Entry]]] = {}
        for owner, per in self._cell_chains.items():
            kept = {
                key: swept
                for key, chain in per.items()
                if (swept := sweep(chain))
            }
            if kept:
                cells[owner] = kept
        self._cell_chains = cells

        memberships: Dict[Oid, Dict[Atom, List[_Entry]]] = {}
        dirty: Dict[Atom, Set[Oid]] = {}
        for obj, per in self._membership_chains.items():
            kept = {
                cls: swept
                for cls, chain in per.items()
                if (swept := sweep(chain))
            }
            if kept:
                memberships[obj] = kept
                for cls in kept:
                    dirty.setdefault(cls, set()).add(obj)
        self._membership_chains = memberships
        self._membership_dirty = dirty

        self._known_chains = {
            obj: swept
            for obj, chain in self._known_chains.items()
            if (swept := sweep(chain))
        }
        self._record_chains = {
            obj: swept
            for obj, chain in self._record_chains.items()
            if (swept := sweep(chain))
        }
        self._relation_chains = {
            name: swept
            for name, chain in self._relation_chains.items()
            if (swept := sweep(chain))
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """Pin and copy-on-write chain statistics (REPL ``.snapshot``)."""
        with self.lock:
            cell_entries = sum(
                len(chain)
                for per in self._cell_chains.values()
                for chain in per.values()
            )
            membership_entries = sum(
                len(chain)
                for per in self._membership_chains.values()
                for chain in per.values()
            )
            return {
                "ticket": self.ticket,
                "pins": sum(self._pins.values()),
                "pinned_versions": len(self._pins),
                "oldest_pin": min(self._pins) if self._pins else -1,
                "cell_chain_entries": cell_entries,
                "membership_chain_entries": membership_entries,
                "known_chain_entries": sum(
                    len(c) for c in self._known_chains.values()
                ),
                "record_chain_entries": sum(
                    len(c) for c in self._record_chains.values()
                ),
                "relation_chain_entries": sum(
                    len(c) for c in self._relation_chains.values()
                ),
            }


class FrozenRelation:
    """An immutable relation as of a pinned version.

    Mirrors the read surface of
    :class:`~repro.datamodel.relations.StoredRelation`; the write surface
    raises.
    """

    def __init__(
        self,
        name: str,
        column_names: Tuple[str, ...],
        rows: FrozenSet[Tuple[Oid, ...]],
    ) -> None:
        self.name = name
        self.column_names = column_names
        self._rows = rows

    @property
    def arity(self) -> int:
        return len(self.column_names)

    def insert(self, row) -> None:
        raise SnapshotReadOnlyError(
            f"relation {self.name} belongs to a read-only snapshot"
        )

    def delete(self, row) -> None:
        raise SnapshotReadOnlyError(
            f"relation {self.name} belongs to a read-only snapshot"
        )

    def rows(self) -> FrozenSet[Tuple[Oid, ...]]:
        return self._rows

    def sorted_rows(self) -> List[Tuple[Oid, ...]]:
        return sorted(
            self._rows, key=lambda row: tuple(term_sort_key(v) for v in row)
        )

    def column(self, name: str) -> FrozenSet[Oid]:
        try:
            index = self.column_names.index(name)
        except ValueError:
            raise RelationalError(
                f"relation {self.name} has no column {name!r}"
            )
        return frozenset(row[index] for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple[Oid, ...]]:
        return iter(self.sorted_rows())

    def __contains__(self, row: Iterable[Oid]) -> bool:
        return tuple(row) in self._rows


class StoreView(ObjectStore):
    """A read-only :class:`ObjectStore` pinned to one committed version.

    Schema reads go to the schema value the pin captured; every schema
    accessor is inherited from :class:`ObjectStore`.  Data reads
    reconstruct the state at the pin's ticket by overlaying the
    pre-image chains on CPython-atomic copies of the live structures
    (live first, chain second — chain wins); per-owner reconstructions
    are memoized, which is sound because a pinned state never changes.
    Every mutator raises :class:`SnapshotReadOnlyError`.

    Inverted indexes are disabled on views (``index_is_complete_for`` is
    always false), so reverse lookups fall back to the always-sound
    forward evaluation instead of consulting live index state.
    """

    def __init__(self, store: ObjectStore, pin: SnapshotPin) -> None:
        # Deliberately no super().__init__(): every piece of base state
        # is either overridden below or resolved through the pin.
        self._base = store
        self._pin = pin
        self._history = store._history
        self._ticket = pin.ticket
        self.schema = pin.schema
        self.validate_values = store.validate_values
        # Shared with the live store: statistics only rank plans, and
        # every view mutator raises before it could write them.
        self.statistics = store.statistics
        self._indexes = AttributeIndexes()
        self._journal = None
        self._observers: Tuple = ()
        self._sinks: Tuple = ()
        #: Oids discovered by computed-method invocation *through this
        #: view* — the view-local analogue of the live store's read-path
        #: ``_note_values`` discovery, so query execution over a snapshot
        #: behaves identically to serial execution at the pinned state.
        self._discovered: Set[Oid] = set()
        self._cells_memo: Dict[Oid, Dict[CellKey, Cell]] = {}
        self._classes_memo: Dict[Oid, FrozenSet[Atom]] = {}
        self._relations_memo: Dict[str, Optional[FrozenRelation]] = {}
        self._known_memo: Optional[FrozenSet[Oid]] = None

    # ------------------------------------------------------------------
    # pin lifecycle
    # ------------------------------------------------------------------

    @property
    def ticket(self) -> int:
        """The pinned ticket: a view's state never moves."""
        return self._ticket

    @property
    def pinned(self) -> bool:
        return not self._pin.released

    def release(self) -> None:
        """Release the underlying pin (idempotent).

        Chains the pin needed may be garbage-collected afterwards, so a
        released view must not be read again; its memos go with the pin.
        """
        self._pin.release()
        self._cells_memo.clear()
        self._classes_memo.clear()
        self._relations_memo.clear()
        self._known_memo = None

    def __enter__(self) -> "StoreView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------------
    # data reads: live copy first, chain overlay second
    # ------------------------------------------------------------------

    def _cells_of(self, owner: Oid) -> Dict[CellKey, Cell]:
        cells = self._cells_memo.get(owner)
        if cells is None:
            record = self._base._records.get(owner)
            cells = dict(record.cells) if record is not None else {}
            per = self._history._cell_chains.get(owner)
            if per:
                for key, chain in list(per.items()):
                    hit, pre = _resolve(chain, self._ticket)
                    if not hit:
                        continue
                    if pre is None:
                        cells.pop(key, None)
                    else:
                        cells[key] = _cell(*pre)
            self._cells_memo[owner] = cells
        return cells

    def _cell_lookup(self, key):
        """One cell at the pin, without copying the owner's cells: the
        live cell first, its chain second (chain wins), the order
        :meth:`_cells_of` reads in."""
        records = self._base._records
        history = self._history
        ticket = self._ticket

        def lookup(owner: Oid) -> Optional[Cell]:
            record = records.get(owner)
            cell = None if record is None else record.cells.get(key)
            per = history._cell_chains.get(owner)
            chain = per.get(key) if per else None
            if chain:
                hit, pre = _resolve(chain, ticket)
                if hit:
                    return None if pre is None else _cell(*pre)
            return cell

        return lookup

    def _snapshot_owners(self) -> Set[Oid]:
        """The objects that held a record at the pin: live first, the
        record chains (creations and purges since) second."""
        owners = set(self._base._records)
        for obj, chain in list(self._history._record_chains.items()):
            hit, existed = _resolve(chain, self._ticket)
            if hit:
                if existed:
                    owners.add(obj)
                else:
                    owners.discard(obj)
        return owners

    def explicit_cell(
        self,
        owner: OidLike,
        method,
        args: Sequence[OidLike] = (),
    ) -> Optional[Cell]:
        key = (_atom(method), tuple(as_oid(a) for a in args))
        return self._cells_of(as_oid(owner)).get(key)

    def _has_cell(
        self, cls: Atom, method: Atom, args: Tuple[Oid, ...]
    ) -> bool:
        return self._cells_of(cls).get((method, args)) is not None

    def explicit_classes_of(self, oid_like: OidLike) -> FrozenSet[Atom]:
        obj = as_oid(oid_like)
        cached = self._classes_memo.get(obj)
        if cached is None:
            live = set(self._base._memberships.get(obj, ()))
            per = self._history._membership_chains.get(obj)
            if per:
                for cls, chain in list(per.items()):
                    hit, was_member = _resolve(chain, self._ticket)
                    if not hit:
                        continue
                    if was_member:
                        live.add(cls)
                    else:
                        live.discard(cls)
            cached = frozenset(live)
            self._classes_memo[obj] = cached
        return cached

    def direct_classes_of(self, oid_like: OidLike) -> FrozenSet[Atom]:
        obj = as_oid(oid_like)
        implicit = self.schema.catalogue.implicit_classes(obj)
        return self.explicit_classes_of(obj) | implicit

    def _direct_extent(self, cls_atom: Atom) -> Set[Oid]:
        live = set(self._base._direct_extents.get(cls_atom, ()))
        dirty = self._history._membership_dirty.get(cls_atom)
        if dirty:
            for obj in list(dirty):
                if cls_atom in self.explicit_classes_of(obj):
                    live.add(obj)
                else:
                    live.discard(obj)
        return live

    def _known_oids(self) -> FrozenSet[Oid]:
        return self.known_objects()

    def known_objects(self) -> FrozenSet[Oid]:
        if self._known_memo is None:
            live = set(self._base._known)
            for obj, chain in list(self._history._known_chains.items()):
                hit, was_known = _resolve(chain, self._ticket)
                if not hit:
                    continue
                if was_known:
                    live.add(obj)
                else:
                    live.discard(obj)
            self._known_memo = frozenset(live)
        if self._discovered:
            return self._known_memo | self._discovered
        return self._known_memo

    def individual_count(self) -> int:
        # Count the view-local discoveries apart from the per-pin memo:
        # building their union, as known_objects() does, is O(store).
        self.known_objects()
        memo = self._known_memo
        hierarchy = self.schema.hierarchy
        return _count_individuals(memo, hierarchy) + _count_individuals(
            self._discovered - memo, hierarchy
        )

    def method_universe(self) -> FrozenSet[Atom]:
        names: Set[Atom] = set(self.schema.catalogue.methods())
        for owner in self._snapshot_owners():
            for method, _args in self._cells_of(owner):
                names.add(method)
        for _cls, method in self.schema.implementations:
            names.add(method)
        return frozenset(names)

    def methods_defined_on(self, owner: OidLike) -> FrozenSet[Atom]:
        owner_oid = as_oid(owner)
        names: Set[Atom] = {
            method for method, _args in self._cells_of(owner_oid)
        }
        schema = self.schema
        if schema.catalogue.is_class(owner_oid):
            reachable = schema.hierarchy.superclasses(owner_oid, strict=False)
        else:
            reachable = self.classes_of(owner_oid)
        for cls in reachable:
            names.update(
                method for method, _args in self._cells_of(cls)
            )
        for (cls, name) in schema.implementations:
            if cls in reachable:
                names.add(name)
        return frozenset(names)

    def reverse_lookup_sound(self, method) -> bool:
        method_atom = _atom(method)
        if self.implementation_classes(method_atom):
            return False
        for cls in self.schema.hierarchy.classes():
            if any(m == method_atom for m, _args in self._cells_of(cls)):
                return False
        return True

    def index_is_complete_for(self, method) -> bool:
        # No live index state is consulted from a snapshot; reverse
        # lookups fall back to forward evaluation, which is always sound.
        return False

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------

    def _relation_at(self, name: str) -> Optional[FrozenRelation]:
        if name in self._relations_memo:
            return self._relations_memo[name]
        live = self._base._relations.get(name)
        live_columns = live.column_names if live is not None else None
        live_rows = live.rows() if live is not None else None
        chain = self._history._relation_chains.get(name)
        result: Optional[FrozenRelation]
        hit = False
        if chain is not None:
            hit, pre = _resolve(chain, self._ticket)
            if hit:
                result = (
                    None
                    if pre is None
                    else FrozenRelation(name, pre[0], pre[1])
                )
        if not hit:
            result = (
                None
                if live is None
                else FrozenRelation(name, live_columns, live_rows)
            )
        self._relations_memo[name] = result
        return result

    def relation(self, name: str):
        relation = self._relation_at(name)
        if relation is None:
            raise UnknownClassError(f"relation {name} is not declared")
        return relation

    def relations(self) -> Dict[str, FrozenRelation]:
        names = set(self._base._relations)
        names.update(self._history._relation_chains)
        out: Dict[str, FrozenRelation] = {}
        for name in names:
            relation = self._relation_at(name)
            if relation is not None:
                out[name] = relation
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def describe(self, oid_like: OidLike) -> str:
        obj = as_oid(oid_like)
        lines = [f"object {obj}"]
        classes = sorted(self.direct_classes_of(obj), key=lambda a: a.name)
        if classes:
            lines.append(
                "  instance-of: " + ", ".join(str(c) for c in classes)
            )
        for (method, args), cell in sorted(
            self._cells_of(obj).items(), key=lambda item: str(item[0])
        ):
            arg_str = "@" + ",".join(str(a) for a in args) if args else ""
            if isinstance(cell, ScalarCell):
                lines.append(f"  {method}{arg_str} -> {cell.value}")
            else:
                members = ", ".join(sorted(str(v) for v in cell.values))
                lines.append(f"  {method}{arg_str} ->> {{{members}}}")
        return "\n".join(lines)

    def iter_records(self) -> Iterator[ObjectRecord]:
        known = self.known_objects()
        for owner in sorted(self._snapshot_owners(), key=str):
            if owner in known:
                yield ObjectRecord(owner, dict(self._cells_of(owner)))

    # ------------------------------------------------------------------
    # read-path discovery stays view-local
    # ------------------------------------------------------------------

    def _note_values(self, values: Iterable[Oid]) -> None:
        for value in values:
            self._discovered.add(value)
            if isinstance(value, FuncOid):
                self._discovered.update(value.args)

    # ------------------------------------------------------------------
    # the write surface raises (every mutator is set below the class);
    # observers are inert
    # ------------------------------------------------------------------

    def _read_only(self, operation: str):
        raise SnapshotReadOnlyError(
            f"{operation} on a snapshot pinned at v{self._ticket}; "
            f"snapshots are read-only — write through the live store"
        )

    def add_observer(self, observer) -> None:
        # Observers watch writes; a snapshot never writes.
        pass

    def remove_observer(self, observer) -> None:
        pass


def _read_only_mutator(name: str):
    def mutator(self, *args, **kwargs):
        self._read_only(name)

    mutator.__name__ = mutator.__qualname__ = name
    return mutator


for _name in (
    "declare_class", "declare_signature", "create_object", "add_instance",
    "remove_instance", "purge_object", "set_attr", "set_attr_set",
    "add_to_set", "unset_attr", "define_method", "resolve_inheritance",
    "enable_index", "disable_index", "declare_relation", "insert_tuple",
    "set_journal", "_put_cell", "_put_membership",
):
    setattr(StoreView, _name, _read_only_mutator(_name))
