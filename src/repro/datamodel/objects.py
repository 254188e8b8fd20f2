"""Tuple-objects and their attribute/method value cells (paper §2).

"Essentially, all our objects are tuple-objects.  Each entry in a
tuple-object is the value of one attribute.  If the attribute is scalar,
then the value is a single object id; if the attribute is set-valued, then
the value is a set of object id's."

Because attributes are identified with 0-ary methods, a cell is keyed by the
pair ``(method, args)``: attributes use the empty argument tuple, k-ary
methods use a tuple of k ground oids.  Stored cells record *explicitly
defined* values; inherited defaults and computed method results are resolved
by the store on top of them.  The store keeps them method-major, one
:class:`Column` per method, which only the store writes
(``ObjectStore._put_cell``).  Cells are immutable values, so a
snapshot's pre-image chain holds the replaced cell itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Tuple, Union

from repro.oid import Atom, Oid

__all__ = ["ScalarCell", "SetCell", "Cell", "CellKey", "Column"]

#: A cell's key within its owner's cells: ``(method, args)``.
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


class Column(dict):
    """The cells of one method, ``(owner, args) -> cell``, keyed as the
    storage codec's ``("f", method, owner, *args)`` keys are."""

    #: The keys a probe ``(owner, ())`` for an individual does not reach:
    #: every key held by a class-object (the method's defaults) and every
    #: key with arguments.  A column the store fills holds its own set.
    side: AbstractSet[Tuple[Oid, Tuple[Oid, ...]]] = frozenset()
