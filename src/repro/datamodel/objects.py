"""Tuple-objects and their attribute/method value cells (paper §2).

"Essentially, all our objects are tuple-objects.  Each entry in a
tuple-object is the value of one attribute.  If the attribute is scalar,
then the value is a single object id; if the attribute is set-valued, then
the value is a set of object id's."

Because attributes are identified with 0-ary methods, a cell is keyed by the
pair ``(method, args)``: attributes use the empty argument tuple, k-ary
methods use a tuple of k ground oids.  Stored cells record *explicitly
defined* values; inherited defaults and computed method results are resolved
by the store on top of them.  An object's record is nothing but its cell
dict, which only the store writes (``ObjectStore._put_cell``) and hands
out read-only (``ObjectStore.records``).  Cells are immutable values, so
a snapshot's pre-image chain holds the replaced cell itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple, Union

from repro.oid import Atom, Oid

__all__ = ["ScalarCell", "SetCell", "Cell", "CellKey"]

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
