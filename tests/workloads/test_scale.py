"""Tests for the scale-population generator (``repro.workloads.scale``).

Determinism, class-mix accounting, Zipf skew sanity, queryability — and
the storage-codec round-trip contract at 10^4 objects: decoded
populations are bit-identical (same codec image, same indexes, same
id-function registry, same rebuilt statistics modulo the generation
counter).
"""

import pytest

from repro.errors import XsqlError
from repro.storage import MemoryEngine, decode_store, encode_store
from repro.storage.smoke import canonical
from tests.conftest import store_image
from repro.workloads.scale import SCALE_TIERS, ScaleSpec, generate_scaled


class TestSpec:
    def test_counts_sum_to_budget(self):
        for n in (100, 1_000, 10_000):
            counts = ScaleSpec(n_objects=n).counts()
            assert counts.total == n

    def test_counts_embedded_in_as_dict(self):
        spec = ScaleSpec(n_objects=2_000, seed=5)
        payload = spec.as_dict()
        assert payload["counts"]["total"] == 2_000
        assert payload["seed"] == 5

    def test_rejects_bad_specs(self):
        with pytest.raises(XsqlError):
            ScaleSpec(n_objects=5)
        with pytest.raises(XsqlError):
            ScaleSpec(vehicle_share=0.9, company_share=0.2)
        with pytest.raises(XsqlError):
            ScaleSpec(zipf_s=-1.0)

    def test_tiers_are_ordered_powers(self):
        assert list(SCALE_TIERS) == ["1k", "10k", "100k", "1m"]
        assert SCALE_TIERS["1m"] == 1_000_000


class TestDeterminism:
    def test_same_seed_same_store(self):
        a = generate_scaled(ScaleSpec(n_objects=1_000, seed=11))
        b = generate_scaled(ScaleSpec(n_objects=1_000, seed=11))
        assert canonical(a) == canonical(b)

    def test_different_seed_different_store(self):
        a = generate_scaled(ScaleSpec(n_objects=1_000, seed=1))
        b = generate_scaled(ScaleSpec(n_objects=1_000, seed=2))
        assert canonical(a) != canonical(b)


class TestShape:
    def test_population_matches_spec_counts(self):
        spec = ScaleSpec(n_objects=2_000, seed=3)
        counts = spec.counts()
        store = generate_scaled(spec)
        assert len(store.extent("Person")) == counts.people
        assert len(store.extent("Employee")) == counts.employees
        assert len(store.extent("Company")) == counts.companies
        assert len(store.extent("Division")) == counts.divisions
        assert len(store.extent("Automobile")) == counts.vehicles
        assert len(store.extent("Address")) == counts.addresses

    def test_zipf_fanout_is_skewed(self):
        """Rank-1 entities dominate their relations at zipf_s > 1."""
        spec = ScaleSpec(n_objects=4_000, seed=9, zipf_s=1.3)
        store = generate_scaled(spec)
        per_company = [
            sum(
                1
                for vehicle in store.extent("Automobile")
                if store.invoke_scalar(vehicle, "Manufacturer") == company
            )
            for company in sorted(store.extent("Company"), key=str)
        ]
        top = max(per_company)
        mean = sum(per_company) / len(per_company)
        assert top > 2 * mean, per_company
        per_division = sorted(
            (
                len(store.invoke(division, "Employees"))
                for division in store.extent("Division")
            ),
            reverse=True,
        )
        assert per_division[0] > 2 * (
            sum(per_division) / len(per_division)
        ), per_division

    def test_uniform_when_zipf_zero(self):
        spec = ScaleSpec(n_objects=4_000, seed=9, zipf_s=0.0)
        store = generate_scaled(spec)
        per_division = [
            len(store.invoke(division, "Employees"))
            for division in store.extent("Division")
        ]
        mean = sum(per_division) / len(per_division)
        assert max(per_division) < 2 * mean, per_division

    def test_queryable_out_of_the_box(self):
        from repro.xsql.session import Session

        store = generate_scaled(ScaleSpec(n_objects=1_000, seed=4))
        session = Session(store)
        rows = session.query(
            "SELECT X FROM Employee X WHERE X.Salary > 100000"
        ).rows()
        assert rows
        chain = session.query(
            "SELECT Z FROM Employee X "
            "WHERE X.OwnedVehicles.Drivetrain.Engine[Z]"
        ).rows()
        assert chain


class TestRoundTrip:
    def test_round_trip_bit_identical_at_10k(self):
        """encode → decode → encode is a fixpoint at 10^4 objects.

        The image covers objects, classes, signatures, indexes, and
        the id-function registry; statistics are not encoded but
        rebuilt by replaying writes, so their snapshots must agree.
        """
        spec = ScaleSpec(n_objects=10_000, seed=0)
        store = generate_scaled(spec)
        image = MemoryEngine()
        report = encode_store(store, image)
        assert not report.skipped
        restored = decode_store(image)
        assert canonical(restored) == list(image.range_scan())
        # Statistics: rebuilt incrementally on restore; identical
        # estimates.
        assert store.statistics.snapshot() == restored.statistics.snapshot()
        # Indexes answer identically after restore.
        assert store.known_objects() == restored.known_objects()
        for cls in ("Person", "Employee", "Automobile", "Division"):
            assert store.extent(cls) == restored.extent(cls)

    def test_restored_store_answers_queries_identically(self):
        from repro.xsql.session import Session

        store = generate_scaled(ScaleSpec(n_objects=1_000, seed=8))
        restored = decode_store(store_image(store))
        text = (
            "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']"
        )
        assert (
            Session(store).query(text).rows()
            == Session(restored).query(text).rows()
        )
