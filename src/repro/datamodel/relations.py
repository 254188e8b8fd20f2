"""First-class relations on a par with objects (paper §2 "Relations").

"There are situations when the use of relations on a par with objects leads
to more natural representation ... so we prefer to have relations as
first-class language constructs."  A stored relation is a named set of
tuples of oids; query results (:mod:`repro.xsql.result`) share this shape,
which is what makes ``UNION``/``MINUS`` between stored and computed
relations natural.

A relation has no public writer: rows enter only through
:meth:`repro.datamodel.store.ObjectStore.insert_tuple`, which takes a
ticket, chains the pre-image for pinned snapshots and journals the row.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.errors import RelationalError
from repro.oid import Oid, term_sort_key

__all__ = ["StoredRelation"]


class StoredRelation:
    """A named relation: a set of equal-length tuples of oids."""

    def __init__(
        self,
        name: str,
        column_names: Tuple[str, ...],
        rows: Iterable[Tuple[Oid, ...]] = (),
    ) -> None:
        if not column_names:
            raise RelationalError(f"relation {name} needs at least one column")
        if len(set(column_names)) != len(column_names):
            raise RelationalError(f"relation {name} has duplicate columns")
        self.name = name
        self.column_names = column_names
        self._rows: Set[Tuple[Oid, ...]] = set(rows)

    @property
    def arity(self) -> int:
        return len(self.column_names)

    def check_row(self, row: Tuple[Oid, ...]) -> None:
        """Reject a row whose width is not the relation's arity."""
        if len(row) != self.arity:
            raise RelationalError(
                f"relation {self.name} has arity {self.arity}; row has "
                f"{len(row)} values"
            )

    def _add(self, row: Tuple[Oid, ...]) -> None:
        """Add a checked row (``ObjectStore.insert_tuple`` only)."""
        self._rows.add(row)

    def rows(self) -> FrozenSet[Tuple[Oid, ...]]:
        return frozenset(self._rows)

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
