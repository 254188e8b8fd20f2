"""Exporting an object store as a set of ground F-logic molecules.

The export covers the *stored* state: explicit data cells, direct
instance-of memberships (plus implicit literal classes), and direct
subclass edges.  Inheritance and transitive closure are part of query
evaluation (:mod:`repro.flogic.eval`), matching F-logic's treatment of
structural/IS-A reasoning as semantics rather than data.

Computed methods (native or query-defined) are intentionally not unfolded
into facts: Theorem 3.1's translation is about the query language, and
the equivalence tests run over stored data, where the export is exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.datamodel.store import ObjectStore
from repro.oid import Atom, Oid
from repro.flogic.molecules import DataAtom

__all__ = ["FlogicDatabase"]


class FlogicDatabase:
    """Ground molecules extracted from an object store."""

    def __init__(
        self,
        store: ObjectStore,
    ) -> None:
        self._store = store
        # (host, method, args) -> set of values; also indexed by method.
        self._data: List[Tuple[Oid, Atom, Tuple[Oid, ...], Oid]] = []
        self._by_method: Dict[Atom, List[int]] = {}
        for owner, cells in store.records():
            for (method, args), cell in cells.items():
                for value in cell.as_set():
                    index = len(self._data)
                    self._data.append((owner, method, args, value))
                    self._by_method.setdefault(method, []).append(index)

    @classmethod
    def from_store(cls, store: ObjectStore) -> "FlogicDatabase":
        return cls(store)

    @property
    def store(self) -> ObjectStore:
        return self._store

    # ------------------------------------------------------------------
    # fact access (used by the evaluator)
    # ------------------------------------------------------------------

    def data_facts(
        self, method: object = None
    ) -> Iterator[Tuple[Oid, Atom, Tuple[Oid, ...], Oid]]:
        if isinstance(method, Atom):
            for index in self._by_method.get(method, ()):
                yield self._data[index]
            return
        yield from self._data

    def isa_holds(self, obj: Oid, cls: Oid) -> bool:
        return isinstance(cls, Atom) and self._store.is_instance(obj, cls)

    def isa_classes_of(self, obj: Oid) -> FrozenSet[Atom]:
        return self._store.classes_of(obj)

    def subclass_holds(self, sub: Oid, sup: Oid) -> bool:
        return (
            isinstance(sub, Atom)
            and isinstance(sup, Atom)
            and self._store.hierarchy.is_subclass(sub, sup, strict=True)
        )

    def individuals(self) -> FrozenSet[Oid]:
        return self._store.individual_universe()

    def classes(self) -> FrozenSet[Atom]:
        return self._store.class_universe()

    def methods(self) -> FrozenSet[Atom]:
        return self._store.method_universe()

    def fact_count(self) -> int:
        return len(self._data)

    def all_molecules(self) -> Iterator[DataAtom]:
        """The export rendered as molecules (for display and tests)."""
        for host, method, args, value in self._data:
            yield DataAtom(host, method, args, value)
