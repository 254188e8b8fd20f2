"""Inverted attribute indexes for nested-object queries.

The paper cites Bertino & Kim, *Indexing Techniques for Queries on Nested
Objects* [BERT89], as the companion evaluation technology for path
expressions.  This module provides the simplest member of that family: a
per-method inverted index mapping attribute values back to the objects
holding them, so a path step with a known value and an unknown host —
``X.Residence[addr1]`` with ``X`` unbound, or the tail-to-head direction
of any selector join — resolves by lookup instead of by scanning the
object universe.

Indexes are opt-in per method (``store.enable_index("Residence")``) and
maintained incrementally by the store's cell primitive
(``ObjectStore._put_cell``), the one place a cell changes; enabling an
index on existing data back-fills it from the current records, which is
also how a reopened store rebuilds it (the storage layer keeps only
which methods are indexed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from repro.oid import Atom, Oid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datamodel.store import ObjectStore

__all__ = ["AttributeIndexes"]


class AttributeIndexes:
    """Per-method inverted indexes: (method, value) → owners."""

    def __init__(self) -> None:
        self._indexed: Set[Atom] = set()
        # method -> value -> set of (owner, args)
        self._entries: Dict[Atom, Dict[Oid, Set[Tuple[Oid, Tuple[Oid, ...]]]]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def is_indexed(self, method: Atom) -> bool:
        return method in self._indexed

    def indexed_methods(self) -> FrozenSet[Atom]:
        return frozenset(self._indexed)

    def enable(self, method: Atom, store: "ObjectStore") -> None:
        """Create (and back-fill) the inverted index for *method*."""
        if method in self._indexed:
            return
        self._indexed.add(method)
        table = self._entries.setdefault(method, {})
        for record in store.iter_records():
            for (cell_method, args), cell in record.entries():
                if cell_method != method:
                    continue
                for value in cell.as_set():
                    table.setdefault(value, set()).add((record.oid, args))

    def disable(self, method: Atom) -> None:
        self._indexed.discard(method)
        self._entries.pop(method, None)

    # ------------------------------------------------------------------
    # incremental maintenance (called from the store's cell primitive)
    # ------------------------------------------------------------------

    def note_write(
        self,
        owner: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        old_values: FrozenSet[Oid],
        new_values: FrozenSet[Oid],
    ) -> None:
        if method not in self._indexed:
            return
        table = self._entries.setdefault(method, {})
        key = (owner, args)
        for value in old_values - new_values:
            bucket = table.get(value)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    table.pop(value, None)
        for value in new_values - old_values:
            table.setdefault(value, set()).add(key)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def owners_of(
        self,
        method: Atom,
        value: Oid,
        args: Optional[Tuple[Oid, ...]] = None,
    ) -> Optional[FrozenSet[Oid]]:
        """Objects whose *method* cell contains *value* (None = no index).

        Only *explicitly stored* cells are indexed; inherited defaults and
        computed methods are not, so callers must fall back to forward
        evaluation when those could contribute (the walker checks).
        """
        if method not in self._indexed:
            self.misses += 1
            return None
        self.hits += 1
        entries = self._entries.get(method, {}).get(value, set())
        if args is None:
            return frozenset(owner for owner, _args in entries)
        return frozenset(
            owner for owner, owner_args in entries if owner_args == args
        )
