"""Tuple-objects and their attribute/method value cells (paper §2).

"Essentially, all our objects are tuple-objects.  Each entry in a
tuple-object is the value of one attribute.  If the attribute is scalar,
then the value is a single object id; if the attribute is set-valued, then
the value is a set of object id's."

Because attributes are identified with 0-ary methods, a cell is keyed by the
pair ``(method, args)``: attributes use the empty argument tuple, k-ary
methods use a tuple of k ground oids.  Stored cells record *explicitly
defined* values; inherited defaults and computed method results are resolved
by the store on top of these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Tuple, Union

from repro.oid import Atom, Oid

__all__ = ["ScalarCell", "SetCell", "Cell", "CellKey", "ObjectRecord"]

CellKey = Tuple[Atom, Tuple[Oid, ...]]


@dataclass(frozen=True)
class ScalarCell:
    """The value of a scalar attribute/method: a single object id."""

    value: Oid

    @property
    def set_valued(self) -> bool:
        return False

    def as_set(self) -> FrozenSet[Oid]:
        return frozenset({self.value})


@dataclass(frozen=True)
class SetCell:
    """The value of a set-valued attribute/method: a set of object ids."""

    values: FrozenSet[Oid]

    @property
    def set_valued(self) -> bool:
        return True

    def as_set(self) -> FrozenSet[Oid]:
        return self.values


Cell = Union[ScalarCell, SetCell]


@dataclass
class ObjectRecord:
    """Everything explicitly recorded about one object.

    ``cells`` holds explicitly-defined attribute and stored-method values;
    an absent key means the attribute is *undefined* here (it may still be
    inherited or computed).  Classes are objects too, so class atoms get
    records as well — their cells double as inheritable default values.

    Only the store writes a record, through its cell primitive
    (:meth:`repro.datamodel.store.ObjectStore._put_cell`), so indexes,
    statistics, snapshots and sinks stay in step with every cell; the
    scalar/set rule is checked there too, before anything moves.
    """

    oid: Oid
    cells: Dict[CellKey, Cell] = field(default_factory=dict)

    def get(self, method: Atom, args: Tuple[Oid, ...] = ()) -> Optional[Cell]:
        return self.cells.get((method, args))

    def defined_methods(self) -> Iterator[Atom]:
        """Method names with at least one explicitly defined cell here."""
        seen = set()
        for method, _args in self.cells:
            if method not in seen:
                seen.add(method)
                yield method

    def entries(self) -> Iterator[Tuple[CellKey, Cell]]:
        return iter(self.cells.items())
