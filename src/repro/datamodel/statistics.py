"""The statistics catalogue: cardinalities for cost-based planning.

The paper's §6 execution plans say which extents are *sound* to
enumerate; choosing a good *order* and *access path* needs numbers.  This
module maintains the three quantities the cost model
(:mod:`repro.xsql.costplan`) consumes:

* **extent cardinalities** — direct instance counts per class, summed
  over the subclass closure on demand;
* **per-method row counts** — how many (owner, args) cells carry values,
  and how many (owner, args, value) entries exist in total;
* **per-method distinct counts** — distinct stored values (the divisor
  of equality selectivity) and distinct owners (the divisor of fan-out).

Everything is maintained incrementally by the store's two write
primitives — ``_put_cell`` calls :meth:`StatisticsCatalogue.note_write`
and ``_put_membership`` calls :meth:`StatisticsCatalogue.note_membership`,
beside the inverted indexes (:mod:`repro.datamodel.indexes`) — so
reading a statistic is a dictionary lookup, never a scan, and the
counters always equal those of a store rebuilt from its current state.
The catalogue keeps no counter of its own: a cost plan records the
store's mutation ticket, which every write moves, so the pipeline
re-costs a cached plan whenever the numbers may have moved.

Statistics are *estimates* by design: implicit literal-class members and
computed method implementations are invisible to the write path, so the
cost model treats every number as an approximation that only has to rank
alternatives sanely, never as a truth the executor relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.oid import Atom, Oid

__all__ = ["MethodStats", "StatisticsCatalogue"]


@dataclass
class MethodStats:
    """Incremental counters for one method's explicitly stored cells."""

    #: (owner, args) cells currently holding at least one value.
    cells: int = 0
    #: Total (owner, args, value) entries across all cells.
    rows: int = 0
    _value_counts: Dict[Oid, int] = field(default_factory=dict)
    _owner_counts: Dict[Oid, int] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def distinct_values(self) -> int:
        return len(self._value_counts)

    @property
    def distinct_owners(self) -> int:
        return len(self._owner_counts)

    @property
    def fan_out(self) -> float:
        """Average values per stored cell (1.0 for purely scalar data)."""
        return self.rows / self.cells if self.cells else 1.0

    def expected_owners(self, value: Oid = None) -> float:
        """Estimated owners whose cell contains one value (probe result).

        With *value* given and actually counted, the estimate is exact for
        explicit cells; otherwise the uniform assumption
        ``rows / distinct_values`` applies.
        """
        if value is not None:
            counted = self._value_counts.get(value)
            if counted is not None:
                return float(counted)
        if not self.distinct_values:
            return 0.0
        return self.rows / self.distinct_values

    # ------------------------------------------------------------------

    def note_write(
        self,
        owner: Oid,
        old_values: FrozenSet[Oid],
        new_values: FrozenSet[Oid],
    ) -> None:
        self.rows += len(new_values) - len(old_values)
        if old_values and not new_values:
            self.cells -= 1
        elif new_values and not old_values:
            self.cells += 1
        for value in old_values - new_values:
            remaining = self._value_counts.get(value, 0) - 1
            if remaining > 0:
                self._value_counts[value] = remaining
            else:
                self._value_counts.pop(value, None)
        for value in new_values - old_values:
            self._value_counts[value] = self._value_counts.get(value, 0) + 1
        delta = len(new_values) - len(old_values)
        if delta:
            remaining = self._owner_counts.get(owner, 0) + delta
            if remaining > 0:
                self._owner_counts[owner] = remaining
            else:
                self._owner_counts.pop(owner, None)

    def as_dict(self) -> Dict[str, float]:
        return {
            "cells": self.cells,
            "rows": self.rows,
            "distinct_values": self.distinct_values,
            "distinct_owners": self.distinct_owners,
            "fan_out": round(self.fan_out, 3),
        }


_EMPTY = MethodStats()


class StatisticsCatalogue:
    """Per-store cardinality statistics, maintained by the write path."""

    def __init__(self) -> None:
        self._methods: Dict[Atom, MethodStats] = {}
        self._direct_extents: Dict[Atom, int] = {}

    # ------------------------------------------------------------------
    # hooks (called from ObjectStore's write primitives)
    # ------------------------------------------------------------------

    def note_write(
        self,
        owner: Oid,
        method: Atom,
        args: Tuple[Oid, ...],
        old_values: FrozenSet[Oid],
        new_values: FrozenSet[Oid],
    ) -> None:
        if old_values == new_values:
            return
        stats = self._methods.get(method)
        if stats is None:
            stats = self._methods[method] = MethodStats()
        stats.note_write(owner, old_values, new_values)
        if not stats.rows:
            # No stored value left: forget the method, as a rebuild would.
            del self._methods[method]

    def note_membership(self, cls: Atom, delta: int) -> None:
        """An object joined (+1) or left (-1) the direct extent of *cls*."""
        self._direct_extents[cls] = self._direct_extents.get(cls, 0) + delta
        if self._direct_extents[cls] <= 0:
            self._direct_extents.pop(cls, None)

    # ------------------------------------------------------------------
    # reads (the cost model's interface)
    # ------------------------------------------------------------------

    def method_stats(self, method: Atom) -> MethodStats:
        """The counters of *method* (an all-zero record when unseen)."""
        return self._methods.get(method, _EMPTY)

    def direct_extent_count(self, cls: Atom) -> int:
        return self._direct_extents.get(cls, 0)

    def known_methods(self) -> Tuple[Atom, ...]:
        return tuple(sorted(self._methods, key=lambda a: a.name))

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-friendly dump (``.stats`` in the REPL, debugging)."""
        return {
            "extents": {
                cls.name: count
                for cls, count in sorted(
                    self._direct_extents.items(), key=lambda kv: kv[0].name
                )
            },
            "methods": {
                method.name: stats.as_dict()
                for method, stats in sorted(
                    self._methods.items(), key=lambda kv: kv[0].name
                )
            },
        }
