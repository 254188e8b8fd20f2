"""Tests for the statistics catalogue feeding the cost-based optimizer."""

import pytest

from repro.datamodel import ObjectStore
from repro.oid import Atom, Value


@pytest.fixture
def store() -> ObjectStore:
    s = ObjectStore()
    s.declare_class("P")
    s.declare_class("Addr")
    s.declare_signature("P", "Residence", "Addr")
    s.declare_signature("P", "Knows", "P", set_valued=True)
    s.create_object(Atom("home"), ["Addr"])
    s.create_object(Atom("away"), ["Addr"])
    for name in ("a", "b", "c"):
        s.create_object(Atom(name), ["P"])
    return s


class TestExtentCounts:
    def test_membership_is_counted_incrementally(self, store):
        assert store.statistics.direct_extent_count(Atom("P")) == 3
        store.create_object(Atom("d"), ["P"])
        assert store.statistics.direct_extent_count(Atom("P")) == 4
        store.remove_instance(Atom("d"), "P")
        assert store.statistics.direct_extent_count(Atom("P")) == 3

    def test_repeated_add_instance_counts_once(self, store):
        store.add_instance(Atom("a"), "P")
        store.add_instance(Atom("a"), "P")
        assert store.statistics.direct_extent_count(Atom("P")) == 3

    def test_extent_estimate_sums_subclass_closure(self, store):
        store.declare_class("Q", ["P"])
        store.create_object(Atom("q1"), ["Q"])
        assert store.extent_estimate(Atom("P")) == 4
        assert store.extent_estimate(Atom("Q")) == 1

    def test_estimate_matches_actual_extent(self, store):
        assert store.extent_estimate(Atom("P")) == len(
            store.extent(Atom("P"))
        )

    def test_purge_decrements_membership(self, store):
        store.purge_object(Atom("c"))
        assert store.statistics.direct_extent_count(Atom("P")) == 2


class TestMethodStats:
    def test_scalar_writes_track_distinct_values(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.set_attr(Atom("b"), "Residence", Atom("home"))
        store.set_attr(Atom("c"), "Residence", Atom("away"))
        stats = store.method_statistics("Residence")
        assert stats.rows == 3
        assert stats.cells == 3
        assert stats.distinct_values == 2
        assert stats.expected_owners(Atom("home")) == 2.0
        assert stats.expected_owners(Atom("away")) == 1.0

    def test_overwrite_moves_refcounts(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.set_attr(Atom("a"), "Residence", Atom("away"))
        stats = store.method_statistics("Residence")
        assert stats.rows == 1
        assert stats.distinct_values == 1
        # "home" is no longer a counted value; the estimator falls back
        # to the uniform average (rows / distinct = 1.0), not to zero.
        assert stats.expected_owners(Atom("home")) == pytest.approx(1.0)
        assert stats.expected_owners(Atom("away")) == 1.0

    def test_set_valued_fan_out(self, store):
        store.add_to_set(Atom("a"), "Knows", Atom("b"))
        store.add_to_set(Atom("a"), "Knows", Atom("c"))
        store.add_to_set(Atom("b"), "Knows", Atom("c"))
        stats = store.method_statistics("Knows")
        assert stats.rows == 3
        assert stats.cells == 2
        assert stats.fan_out == pytest.approx(1.5)
        assert stats.distinct_owners == 2

    def test_unset_removes_rows(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.unset_attr(Atom("a"), "Residence")
        stats = store.method_statistics("Residence")
        assert stats.rows == 0
        assert stats.distinct_values == 0

    def test_purge_replays_removals(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.add_to_set(Atom("a"), "Knows", Atom("b"))
        store.purge_object(Atom("a"))
        assert store.method_statistics("Residence").rows == 0
        assert store.method_statistics("Knows").rows == 0

    def test_unseen_method_is_empty(self, store):
        stats = store.method_statistics("Nope")
        assert stats.rows == 0
        assert stats.expected_owners(Atom("home")) == 0.0

    def test_expected_owners_average_for_uncounted_value(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.set_attr(Atom("b"), "Residence", Atom("away"))
        stats = store.method_statistics("Residence")
        # 2 rows over 2 distinct values -> one owner on average.
        assert stats.expected_owners() == pytest.approx(1.0)


class TestGeneration:
    """The catalogue keeps no counter: cost plans stamp the store's
    mutation ticket, which every write and every DDL moves."""

    def test_data_writes_bump_generation(self, store):
        before = store.ticket
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        assert store.ticket > before

    def test_noop_write_does_not_bump(self, store):
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        before = store.statistics.snapshot()
        store.set_attr(Atom("a"), "Residence", Atom("home"))
        assert store.statistics.snapshot() == before

    def test_ddl_bumps_generation(self, store):
        ticket, schema = store.ticket, store.schema
        store.declare_class("R")
        assert store.ticket > ticket
        assert store.schema is not schema


class TestSnapshot:
    def test_snapshot_is_json_friendly(self, store):
        import json

        store.set_attr(Atom("a"), "Residence", Atom("home"))
        store.add_to_set(Atom("a"), "Knows", Atom("b"))
        payload = store.statistics.snapshot()
        json.dumps(payload)
        assert payload["extents"]["P"] == 3
        assert payload["methods"]["Residence"]["rows"] == 1
