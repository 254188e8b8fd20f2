"""The batch algebra: the factored binding-state of the operator tree.

The physical-operator executor (:mod:`repro.xsql.operators`) represents
the binding stream as a list of variable-disjoint :class:`ColumnBatch`
objects whose cross product is the logical stream.  A batch holds one
value vector per variable plus a row count.  Ragged bindings (a
variable declared by the batch but unbound in some rows, e.g. after an
OR branch) store the :data:`UNBOUND` sentinel in the vector; the row
adapters drop it, so ``from_rows``/``to_rows`` round-trip exactly.

The three algebra operations — :func:`merge_overlapping`,
:func:`merge_all`, :func:`product_count` — preserve the logical stream
bit-for-bit: a merge repeats the left columns and tiles the right
columns, which enumerates rows in left-outer/right-inner order, the
order ``[{**l, **r} for l in left for r in right]`` gives over the row
dicts.  The property suite in ``tests/xsql/test_batch_algebra.py``
holds the algebra to exactly that list-of-dicts reference.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.oid import Variable
from repro.xsql.paths import Bindings

__all__ = [
    "UNBOUND",
    "ColumnBatch",
    "State",
    "cross_state",
    "merge_all",
    "merge_overlapping",
    "product_count",
    "replay_deltas",
]


class _Unbound:
    """The columnar null: "declared by the batch, unbound in this row"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNBOUND"


#: Sentinel stored in a column vector where a row does not bind the
#: column's variable.  Row adapters omit the key entirely (a binding
#: dict simply lacking the key).
UNBOUND = _Unbound()


def _var_key(var: Variable) -> Tuple[str, str]:
    return (var.name, var.sort.value)


class ColumnBatch:
    """One independent batch of the factored stream: a vector per variable.

    ``columns`` maps each declared variable to a list of ``length``
    cells; a cell is a bound value or :data:`UNBOUND`.  The logical rows
    are positional: row *i* is ``{var: columns[var][i]}`` over the non-
    UNBOUND cells.
    """

    __slots__ = ("vars", "columns", "length")

    def __init__(
        self,
        vars: Set[Variable],
        columns: Dict[Variable, List[object]],
        length: int,
    ) -> None:
        self.vars = vars
        self.columns = columns
        self.length = length

    def __len__(self) -> int:
        return self.length

    @classmethod
    def identity(cls) -> "ColumnBatch":
        """The merge identity: zero variables, one (empty) row."""
        return cls(set(), {}, 1)

    @classmethod
    def from_rows(
        cls, vars: Set[Variable], rows: Sequence[Bindings]
    ) -> "ColumnBatch":
        """Columnarize *rows*; variables beyond *vars* are kept too."""
        declared = set(vars)
        for row in rows:
            declared.update(row)
        columns = {
            var: [row.get(var, UNBOUND) for row in rows]
            for var in sorted(declared, key=_var_key)
        }
        return cls(declared, columns, len(rows))

    def rows(self) -> Iterator[Bindings]:
        """The batch's bindings as dicts, in row order (UNBOUND dropped)."""
        items = list(self.columns.items())
        for index in range(self.length):
            yield {
                var: column[index]
                for var, column in items
                if column[index] is not UNBOUND
            }

    def to_rows(self) -> List[Bindings]:
        return list(self.rows())

    def projection_keys(self, key_vars: Sequence[Variable]) -> List[Tuple]:
        """Per row, the cells of *key_vars* (None where unbound/absent)."""
        key_columns = []
        for var in key_vars:
            column = self.columns.get(var)
            if column is None:
                key_columns.append([None] * self.length)
            else:
                key_columns.append(
                    [None if cell is UNBOUND else cell for cell in column]
                )
        if not key_columns:
            return [()] * self.length
        return list(zip(*key_columns))

    def has_unbound(self, wanted: Set[Variable]) -> bool:
        """Is any *wanted* variable UNBOUND in any row of this batch?"""
        for var in wanted & self.vars:
            if any(cell is UNBOUND for cell in self.columns[var]):
                return True
        return False


def replay_deltas(
    base: "ColumnBatch",
    extra_vars: Set[Variable],
    per_row: Sequence[Sequence[Bindings]],
) -> "ColumnBatch":
    """Expand each base row by its delta list, column-at-a-time.

    ``per_row[i]`` is the (possibly empty) sequence of binding deltas
    row *i* produced; the output enumerates, for each row in order, one
    row per delta — exactly the ``{**env, **delta}`` replay over row
    dicts, but assembled as vectors without materializing them.  A
    delta may override a base column (a variable UNBOUND in that row);
    *extra_vars* declares variables that must exist in the output even
    if no delta ever binds them (filled with UNBOUND).

    Column lists are treated as immutable throughout the executor, so
    the no-expansion fast paths alias or slice the base vectors instead
    of copying cell by cell.
    """
    counts = [len(deltas) for deltas in per_row]
    out_len = sum(counts)
    delta_vars: Set[Variable] = set()
    for deltas in per_row:
        for delta in deltas:
            if delta:
                delta_vars.update(delta)
    out_vars = base.vars | extra_vars | delta_vars
    selection = not delta_vars and max(counts, default=0) <= 1
    pure_keep = selection and out_len == base.length
    keep = (
        [index for index, count in enumerate(counts) if count]
        if selection and not pure_keep
        else None
    )
    columns: Dict[Variable, List[object]] = {}
    for var in sorted(out_vars, key=_var_key):
        base_col = base.columns.get(var)
        if var in delta_vars:
            col: List[object] = []
            if base_col is None:
                for deltas in per_row:
                    for delta in deltas:
                        col.append(delta.get(var, UNBOUND))
            else:
                for index, deltas in enumerate(per_row):
                    fallback = base_col[index]
                    for delta in deltas:
                        col.append(delta.get(var, fallback))
        elif base_col is None:
            col = [UNBOUND] * out_len
        elif pure_keep:
            col = base_col
        elif keep is not None:
            col = [base_col[index] for index in keep]
        else:
            col = [
                base_col[index]
                for index, count in enumerate(counts)
                for _ in range(count)
            ]
        columns[var] = col
    return ColumnBatch(out_vars, columns, out_len)


#: The executor state: disjoint-variable batches whose cross product is
#: the logical binding stream.  The empty state means "one empty env".
State = List[ColumnBatch]


def _cross_pair(left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
    """Cross product, left-outer/right-inner: repeat left, tile right."""
    llen, rlen = left.length, right.length
    columns: Dict[Variable, List[object]] = {}
    for var, column in left.columns.items():
        if rlen == 1:
            columns[var] = list(column)
        else:
            columns[var] = [cell for cell in column for _ in range(rlen)]
    for var, column in right.columns.items():
        if llen == 1:
            columns[var] = list(column)
        else:
            columns[var] = list(column) * llen
    return ColumnBatch(left.vars | right.vars, columns, llen * rlen)


def merge_overlapping(
    state: State, touched: Set[Variable], merge_all: bool = False
) -> Tuple[ColumnBatch, State]:
    """Cross-product every batch overlapping *touched*; keep the rest.

    This is the core move of the factored-state algebra: the merged
    batch binds the union of the overlapping batches' variables, its
    rows are their cross product, and the untouched batches pass through
    unchanged — so ``product_count`` is preserved and batch variable
    sets stay disjoint (``tests/xsql/test_batch_algebra.py`` holds the
    algebra to both).

    With ``merge_all`` the whole state collapses into one batch — the
    merged (tuple-at-a-time-equivalent) execution mode.  An empty state
    merges to :meth:`ColumnBatch.identity`.
    """
    merged = ColumnBatch.identity()
    rest: State = []
    for batch in state:
        if merge_all or (batch.vars & touched):
            merged = _cross_pair(merged, batch)
        else:
            rest.append(batch)
    return merged, rest


def merge_all(state: State) -> ColumnBatch:
    """Collapse the whole state into one batch (full cross product)."""
    merged, _rest = merge_overlapping(state, set(), merge_all=True)
    return merged


def cross_state(state: State) -> Iterator[Bindings]:
    """The logical binding stream: the batches' cross product."""
    return _cross([batch.to_rows() for batch in state], 0, {})


def _cross(
    per_batch: List[List[Bindings]], index: int, acc: Bindings
) -> Iterator[Bindings]:
    # A module function, not a self-referencing closure: the closure
    # would be a reference cycle per call.
    if index == len(per_batch):
        yield dict(acc)
        return
    for env in per_batch[index]:
        yield from _cross(per_batch, index + 1, {**acc, **env})


def product_count(state: State) -> int:
    """Logical row count of a state: the product of its batch sizes."""
    count = 1
    for batch in state:
        count *= len(batch)
    return count

