"""Property-based suite for the factored-state batch algebra.

The operator executor (``repro.xsql.operators``) represents the binding
stream as a list of variable-disjoint :class:`ColumnBatch` objects whose
cross product is the logical stream.  Every operator manipulates that
state through three public functions — ``merge_overlapping``,
``merge_all``, ``product_count`` — and the correctness of *every*
plan/join mode rides on four algebraic facts, each checked here over
≥200 random states:

* merging preserves the cross product (both the ``product_count`` and
  the logical row multiset);
* the merged batch is independent of the order the batches appear in;
* merging keeps batch variable-sets pairwise disjoint;
* ``merge_all`` equals iterated pairwise merging (a left fold).

The suite also keeps an independent reference in this module: a plain
list-of-dicts cross product over each batch's ``to_rows()``.
``merge_overlapping``, ``merge_all`` and ``cross_state`` must enumerate
exactly its rows, in its order — ragged rows (variables UNBOUND in some
rows) and the empty-state identity included.  Row↔column round-trips
are exact.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oid import Value, Variable
from repro.xsql.batches import (
    UNBOUND,
    ColumnBatch,
    cross_state,
)
from repro.xsql.operators import (
    merge_all,
    merge_overlapping,
    product_count,
)

_VAR_POOL = [Variable(name) for name in "UVWXYZ"]


@st.composite
def states(draw):
    """A well-formed state: batches with pairwise disjoint variables.

    Rows are ragged: any row may leave any of its batch's variables
    unbound (the shape OR branches produce), stored as UNBOUND cells.
    """
    pool = list(_VAR_POOL)
    draw(st.randoms(use_true_random=False)).shuffle(pool)
    n_batches = draw(st.integers(0, 4))
    state = []
    for _ in range(n_batches):
        if not pool:
            break
        width = draw(st.integers(1, min(2, len(pool))))
        batch_vars = {pool.pop() for _ in range(width)}
        n_envs = draw(st.integers(0, 3))
        envs = [
            {
                var: Value(draw(st.integers(0, 5)))
                for var in sorted(batch_vars, key=str)
                if draw(st.integers(0, 3))  # bound three times in four
            }
            for _ in range(n_envs)
        ]
        state.append(ColumnBatch.from_rows(batch_vars, envs))
    return state


# ----------------------------------------------------------------------
# the list-of-dicts reference
# ----------------------------------------------------------------------


def reference_product(batches):
    """Cross product of the batches' row dicts, left-outer/right-inner."""
    rows = [{}]
    for batch in batches:
        rows = [
            {**left, **right} for left in rows for right in batch.to_rows()
        ]
    return rows


def reference_merge(state, touched, merge_all=False):
    """(merged vars, merged rows, rest) of the list-of-dicts merge."""
    merging = [b for b in state if merge_all or (b.vars & touched)]
    rest = [b for b in state if not (merge_all or (b.vars & touched))]
    merged_vars = set().union(*(b.vars for b in merging))
    return merged_vars, reference_product(merging), rest


def row_multiset(state):
    """The logical binding stream as a comparable multiset."""
    return Counter(
        tuple(sorted((str(var), str(val)) for var, val in env.items()))
        for env in cross_state(state)
    )


def batch_key(batch):
    """A canonical, order-insensitive fingerprint of one batch."""
    env_multiset = Counter(
        tuple(sorted((str(v), str(o)) for v, o in env.items()))
        for env in batch.to_rows()
    )
    return (
        frozenset(batch.vars),
        frozenset(env_multiset.items()),
    )


class TestMergeOverlapping:
    @given(state=states(), touched=st.sets(st.sampled_from(_VAR_POOL)))
    @settings(max_examples=200, deadline=None)
    def test_preserves_cross_product(self, state, touched):
        before_count = product_count(state)
        before_rows = row_multiset(state)
        merged, rest = merge_overlapping(state, touched)
        after = [merged] + rest
        assert product_count(after) == before_count
        assert row_multiset(after) == before_rows

    @given(
        state=states(),
        touched=st.sets(st.sampled_from(_VAR_POOL)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_independent_of_batch_order(self, state, touched, data):
        shuffled = list(state)
        data.draw(st.randoms(use_true_random=False)).shuffle(shuffled)
        merged_a, rest_a = merge_overlapping(state, touched)
        merged_b, rest_b = merge_overlapping(shuffled, touched)
        assert batch_key(merged_a) == batch_key(merged_b)
        assert Counter(map(batch_key, rest_a)) == Counter(
            map(batch_key, rest_b)
        )

    @given(state=states(), touched=st.sets(st.sampled_from(_VAR_POOL)))
    @settings(max_examples=200, deadline=None)
    def test_keeps_variable_sets_disjoint(self, state, touched):
        merged, rest = merge_overlapping(state, touched)
        batches = [merged] + rest
        for i, left in enumerate(batches):
            for right in batches[i + 1:]:
                assert not (left.vars & right.vars)

    @given(state=states(), touched=st.sets(st.sampled_from(_VAR_POOL)))
    @settings(max_examples=200, deadline=None)
    def test_merged_covers_touched_batches(self, state, touched):
        """Every batch overlapping *touched* lands in the merged batch;
        every untouched batch survives unchanged."""
        merged, rest = merge_overlapping(state, touched)
        for batch in state:
            if batch.vars & touched:
                assert batch.vars <= merged.vars
            else:
                assert any(
                    batch_key(batch) == batch_key(kept) for kept in rest
                )


class TestMergeAll:
    @given(state=states())
    @settings(max_examples=200, deadline=None)
    def test_equals_iterated_pairwise_merging(self, state):
        collapsed = merge_all(state)
        acc = ColumnBatch.identity()
        for batch in state:
            acc, leftover = merge_overlapping([acc, batch], set(), True)
            assert leftover == []
        assert acc.vars == collapsed.vars
        assert acc.to_rows() == collapsed.to_rows()

    @given(state=states())
    @settings(max_examples=200, deadline=None)
    def test_single_batch_preserves_product(self, state):
        collapsed = merge_all(state)
        assert len(collapsed) == product_count(state)
        assert row_multiset([collapsed]) == row_multiset(state)


class TestProductCount:
    @given(state=states())
    @settings(max_examples=200, deadline=None)
    def test_counts_logical_stream(self, state):
        assert product_count(state) == sum(row_multiset(state).values())

    def test_empty_state_is_one_empty_env(self):
        assert product_count([]) == 1
        assert list(cross_state([])) == [{}]


@st.composite
def ragged_rows(draw):
    """Rows over a shared variable set where any row may leave any
    variable unbound — the shape OR branches produce."""
    width = draw(st.integers(1, 3))
    batch_vars = set(_VAR_POOL[:width])
    n_rows = draw(st.integers(0, 5))
    rows = []
    for _ in range(n_rows):
        row = {}
        for var in sorted(batch_vars, key=str):
            if draw(st.booleans()):
                row[var] = Value(draw(st.integers(0, 5)))
        rows.append(row)
    return batch_vars, rows


class TestColumnBatch:
    @given(data=ragged_rows())
    @settings(max_examples=200, deadline=None)
    def test_row_column_round_trip(self, data):
        batch_vars, rows = data
        batch = ColumnBatch.from_rows(batch_vars, rows)
        assert len(batch) == len(rows)
        assert batch.to_rows() == rows

    @given(data=ragged_rows())
    @settings(max_examples=200, deadline=None)
    def test_unbound_cells_fill_missing_keys(self, data):
        batch_vars, rows = data
        batch = ColumnBatch.from_rows(batch_vars, rows)
        for var in batch_vars:
            column = batch.columns[var]
            for index, row in enumerate(rows):
                if var in row:
                    assert column[index] == row[var]
                else:
                    assert column[index] is UNBOUND

    @given(state=states(), touched=st.sets(st.sampled_from(_VAR_POOL)))
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_dict_implementation(self, state, touched):
        """The merge enumerates exactly the rows (and order) of the
        list-of-dicts reference — the bit-identical contract."""
        merged, rest = merge_overlapping(state, touched)
        ref_vars, ref_rows, ref_rest = reference_merge(state, touched)
        assert merged.vars == ref_vars
        assert merged.to_rows() == ref_rows
        assert rest == ref_rest  # untouched batches pass through as-is

    @given(state=states())
    @settings(max_examples=200, deadline=None)
    def test_merge_all_matches_dict_implementation(self, state):
        collapsed = merge_all(state)
        ref_vars, ref_rows, ref_rest = reference_merge(state, set(), True)
        assert ref_rest == []
        assert collapsed.vars == ref_vars
        assert collapsed.to_rows() == ref_rows
        assert len(collapsed) == len(ref_rows) == product_count(state)

    @given(state=states())
    @settings(max_examples=200, deadline=None)
    def test_cross_state_matches_dict_implementation(self, state):
        assert list(cross_state(state)) == reference_product(state)

    def test_empty_state_merges_to_identity(self):
        merged, rest = merge_overlapping([], set())
        assert rest == []
        assert merged.vars == set() and len(merged) == 1
        assert merged.to_rows() == [{}] == reference_product([])
        assert merge_all([]).to_rows() == [{}]

