"""MVCC versions: tickets, copy-on-write pre-image chains, snapshot views.

A store's version is two facts: the mutation **ticket** and the
published schema value.  This module builds snapshot isolation on them:

* every mutation of an :class:`~repro.datamodel.store.ObjectStore`
  advances a monotone **ticket** under the store's write lock;
* while at least one snapshot is **pinned**, each mutator records the
  **pre-image** of whatever it is about to overwrite into a per-key
  chain ``[(ticket, pre), ...]`` *before* touching the live structure;
  the chains of one kind of fact form one :class:`ChainTable`, and the
  five families (cells, memberships, known set, records, relations)
  share that one type;
* a :class:`StoreView` pinned at ticket *s* overrides only the store's
  fact primitives: each reads the base store's primitive first and
  then consults the chain — the smallest entry with ``ticket > s``
  holds exactly the value at *s*, and the ordering protocol (writers
  chain-then-mutate, readers live-then-chain, chain wins) makes every
  interleaving consistent without reader locks;
* releasing the last pin drops all chains in O(1); with pins remaining,
  entries at or below the oldest pin are swept (tables are swapped,
  never mutated in place, so concurrent readers keep a consistent view).

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
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.datamodel.indexes import AttributeIndexes
from repro.datamodel.objects import Cell, CellKey, Column
from repro.datamodel.relations import StoredRelation
from repro.datamodel.store import (
    ObjectStore,
    Schema,
    _count_individuals,
)
from repro.errors import SnapshotReadOnlyError
from repro.oid import Atom, FuncOid, Oid

__all__ = [
    "SnapshotPin",
    "ChainTable",
    "MvccHistory",
    "StoreView",
]


#: One pre-image chain entry: the mutation ticket and the value that was
#: current immediately *before* that mutation.
_Entry = Tuple[int, Any]
_entry_ticket = itemgetter(0)
#: ``group -> key -> chain``: the layout of one :class:`ChainTable`.
_Groups = Dict[Hashable, Dict[Hashable, List[_Entry]]]


def _resolve(chain: List[_Entry], ticket: int) -> Tuple[bool, Any]:
    """The pre-image governing *ticket*, if any chain entry applies:
    the first entry whose ticket exceeds *ticket* recorded the state as
    of *ticket*."""
    idx = bisect_right(chain, ticket, key=_entry_ticket)
    if idx < len(chain):
        return True, chain[idx][1]
    return False, None


#: The chain families, in ``version_status`` order; each status key is
#: ``<family>_chain_entries``.  A cell chain is keyed as the column is,
#: ``method -> (owner, args)``, and holds the replaced cell (or None); a
#: membership chain
#: ``class -> object`` and holds whether the object was a member; the
#: known set, the records and the relations each form one group (None)
#: keyed by oid or name, holding whether the oid was known, whether it
#: held a record, and the replaced relation (or None).
FAMILIES = ("cell", "membership", "known", "record", "relation")


class ChainTable:
    """One family of pre-image chains: ``group -> key -> [(ticket, pre)]``.

    Chains are ascending by ticket; the first entry whose ticket exceeds
    a pinned ticket *s* holds the value at *s*.  Writers append in place
    under the store's write lock; garbage collection builds a new table
    (:meth:`swept`) and swaps it in whole, so a reader holding a table
    keeps a consistent, if stale, one.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Optional[_Groups] = None) -> None:
        self.groups: _Groups = {} if groups is None else groups

    def record(
        self,
        group: Hashable,
        key: Hashable,
        entry: _Entry,
        pins: Iterable[int],
    ) -> bool:
        """Append *entry* unless the chain already serves every pin.

        Skip-append: a pin at *s* needs the first entry with ``ticket >
        s``; when the last entry already exceeds the newest pin, every
        pin has one and another pre-image would be dead weight.
        """
        chain = self.groups.setdefault(group, {}).setdefault(key, [])
        if chain and chain[-1][0] > max(pins):
            return False
        chain.append(entry)
        return True

    def resolve(
        self, group: Hashable, key: Hashable, ticket: int
    ) -> Tuple[bool, Any]:
        """``(True, pre)`` when a chain entry governs *ticket*, else
        ``(False, None)``: the live value stands."""
        per = self.groups.get(group)
        chain = per.get(key) if per else None
        return _resolve(chain, ticket) if chain else (False, None)

    def overlay(
        self, group: Hashable, ticket: int
    ) -> Iterator[Tuple[Any, Any]]:
        """``(key, pre)`` for every key of *group* whose chain governs
        *ticket*."""
        per = self.groups.get(group)
        if per:
            for key, chain in list(per.items()):
                hit, pre = _resolve(chain, ticket)
                if hit:
                    yield key, pre

    def swept(self, floor: int) -> "ChainTable":
        """A new table without the entries no pin above *floor* reads."""
        groups: _Groups = {}
        for group, per in self.groups.items():
            kept = {
                key: swept
                for key, chain in per.items()
                if (swept := [entry for entry in chain if entry[0] > floor])
            }
            if kept:
                groups[group] = kept
        return ChainTable(groups)

    def count(self) -> int:
        """The number of chain entries."""
        return sum(
            len(chain) for per in self.groups.values() for chain in per.values()
        )


def _overlaid(members: Set, hits: Iterable[Tuple[Any, bool]]) -> Set:
    """*members* with each ``(key, was_present)`` chain hit applied."""
    for key, present in hits:
        if present:
            members.add(key)
        else:
            members.discard(key)
    return members


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
        #: family -> its chain table; swapped whole by GC.
        self.tables: Dict[str, ChainTable] = {
            family: ChainTable() for family in FAMILIES
        }

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

    def chain(
        self, family: str, group: Hashable, key: Hashable, pre: Any
    ) -> bool:
        """Chain *pre*, the value of one key before the current mutation.

        Callers hold the lock, have advanced, and have not yet changed
        the key.  Returns whether an entry was appended: with no pin, or
        when the chain already serves every pin, nothing is recorded.
        """
        if not self._pins:
            return False
        return self.tables[family].record(
            group, key, (self.ticket, pre), self._pins
        )

    # ------------------------------------------------------------------
    # garbage collection and observability
    # ------------------------------------------------------------------

    def _gc(self) -> None:
        """Drop chain entries no remaining pin can reach.

        With no pins left everything resets in O(1).  Otherwise entries
        at or below the oldest pin are swept into new tables, swapped in
        whole, never mutated in place.
        """
        if not self._pins:
            self._reset_chains()
            return
        floor = min(self._pins)
        self.tables = {
            family: table.swept(floor) for family, table in self.tables.items()
        }

    def status(self) -> Dict[str, int]:
        """Pin and copy-on-write chain statistics (REPL ``.snapshot``)."""
        with self.lock:
            status = {
                "ticket": self.ticket,
                "pins": sum(self._pins.values()),
                "pinned_versions": len(self._pins),
                "oldest_pin": min(self._pins) if self._pins else -1,
            }
            for family, table in self.tables.items():
                status[f"{family}_chain_entries"] = table.count()
            return status


class StoreView(ObjectStore):
    """A read-only :class:`ObjectStore` pinned to one committed version.

    Schema reads go to the schema value the pin captured; every schema
    accessor is inherited from :class:`ObjectStore`.  Data reads are
    inherited too: the view overrides only the store's fact primitives
    (``_column``, ``_cell_lookup``, ``_cell_methods``,
    ``_record_owners``, ``_explicit_classes``, ``_direct_extent``,
    ``_known_oids``, ``_relation_at`` and ``_relation_names``).  Each
    override reads the base store's primitive first and then the
    pre-image chain, and the chain wins; columns and per-object class
    sets are memoized, which is sound because a pinned state never
    changes.  Every mutator raises :class:`SnapshotReadOnlyError`.

    Inverted indexes are disabled on views (``index_is_complete_for`` is
    always false), so reverse lookups fall back to the always-sound
    forward evaluation instead of consulting live index state.
    """

    def __init__(self, store: ObjectStore, pin: SnapshotPin) -> None:
        # Deliberately no super().__init__(): the view holds no data of
        # its own; its fact primitives read the base store's.
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
        self._columns_memo: Dict[Atom, Column] = {}
        self._classes_memo: Dict[Oid, FrozenSet[Atom]] = {}
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
        self._columns_memo.clear()
        self._classes_memo.clear()
        self._known_memo = None

    def __enter__(self) -> "StoreView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------------
    # fact primitives: the base store's primitive first, the chain
    # second (chain wins)
    # ------------------------------------------------------------------

    def _overlay(self, family: str, group) -> Iterator[Tuple[Any, Any]]:
        return self._history.tables[family].overlay(group, self._ticket)

    def _column(self, method: Atom) -> Column:
        column = self._columns_memo.get(method)
        if column is None:
            live = self._base._column(method)
            # Side keys first: a key dropped before the copy is chained.
            candidates = [*live.side]
            column = Column(live)
            for key, pre in self._overlay("cell", method):
                candidates.append(key)
                if pre is None:
                    column.pop(key, None)
                else:
                    column[key] = pre
            # The side keys at the pin, judged by the pinned schema.
            hierarchy = self.schema.hierarchy
            column.side = {
                key
                for key in candidates
                if key in column and (key[1] or key[0] in hierarchy)
            }
            self._columns_memo[method] = column
        return column

    def _cell_lookup(self, key: CellKey) -> Callable[[Oid], Optional[Cell]]:
        # The column at the pin never changes, so the reader binds it.
        method, args = key
        column = self._column(method)
        return lambda owner: column.get((owner, args))

    def _cell_methods(self) -> Iterable[Atom]:
        # A column the live store dropped since the pin has a chain.
        methods = dict.fromkeys(
            (*self._base._cell_methods(), *self._history.tables["cell"].groups)
        )
        return [method for method in methods if self._column(method)]

    def _record_owners(self) -> Iterable[Oid]:
        owners = dict.fromkeys(self._base._record_owners())
        for obj, existed in self._overlay("record", None):
            if existed:
                owners[obj] = None
            else:
                owners.pop(obj, None)
        return owners.keys()

    def _explicit_classes(self, obj: Oid) -> FrozenSet[Atom]:
        cached = self._classes_memo.get(obj)
        if cached is None:
            classes = set(self._base._explicit_classes(obj))
            table = self._history.tables["membership"]
            for cls in list(table.groups):
                hit, was_member = table.resolve(cls, obj, self._ticket)
                if hit and was_member:
                    classes.add(cls)
                elif hit:
                    classes.discard(cls)
            cached = self._classes_memo[obj] = frozenset(classes)
        return cached

    def _direct_extent(self, cls_atom: Atom) -> Set[Oid]:
        return _overlaid(
            set(self._base._direct_extent(cls_atom)),
            self._overlay("membership", cls_atom),
        )

    def _known_oids(self) -> FrozenSet[Oid]:
        if self._known_memo is None:
            self._known_memo = frozenset(
                _overlaid(
                    set(self._base._known_oids()),
                    self._overlay("known", None),
                )
            )
        if self._discovered:
            return self._known_memo | self._discovered
        return self._known_memo

    def _relation_at(self, name: str) -> Optional[StoredRelation]:
        # A chained relation is never written again (``insert_tuple``
        # writes a copy), and neither is a live one a pinned reader
        # could have read: the next insert chains it first.
        live = self._base._relation_at(name)
        hit, pre = self._history.tables["relation"].resolve(
            None, name, self._ticket
        )
        return pre if hit else live

    def _relation_names(self) -> Iterable[str]:
        # Relations are never dropped, so the live names cover the
        # pin's; _relation_at answers None for one declared after it.
        return self._base._relation_names()

    # ------------------------------------------------------------------
    # view-local counts and indexes
    # ------------------------------------------------------------------

    def individual_count(self) -> int:
        # Count the view-local discoveries apart from the per-pin memo:
        # building their union, as _known_oids() does, is O(store).
        self._known_oids()
        memo = self._known_memo
        hierarchy = self.schema.hierarchy
        return _count_individuals(memo, hierarchy) + _count_individuals(
            self._discovered - memo, hierarchy
        )

    def index_is_complete_for(self, method) -> bool:
        # No live index state is consulted from a snapshot; reverse
        # lookups fall back to forward evaluation, which is always sound.
        return False

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
