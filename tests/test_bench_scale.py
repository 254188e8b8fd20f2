"""Schema validation and CI-gate logic for the BENCH_scale.json artifact.

Runs the real harness once at the 1k tier (canonical mode only, one
round) to pin the artifact shape, then exercises
``validate_artifact``/``strip_timings``/``compare_to_baseline`` on
synthetic payloads so the regression gate itself is tested.
"""

import copy
import json

import pytest

from repro.bench.scale import (
    compare_to_baseline,
    render_report,
    run_scale_benchmark,
    strip_timings,
    validate_artifact,
)


@pytest.fixture(scope="module")
def artifact():
    return run_scale_benchmark(
        tiers=("1k",), rounds=1, modes=[("cost", "hash")]
    )


class TestArtifactShape:
    def test_real_run_validates(self, artifact):
        validate_artifact(artifact)

    def test_spec_embedded_per_tier(self, artifact):
        tier = artifact["tiers"][0]
        assert tier["spec"]["n_objects"] == 1_000
        assert tier["spec"]["counts"]["total"] == 1_000
        assert tier["ingest"]["objects_per_sec"] > 0

    def test_every_query_reports_percentiles_and_operators(self, artifact):
        queries = artifact["tiers"][0]["modes"][0]["queries"]
        assert len(queries) >= 8
        for query in queries:
            assert query["p95_ms"] >= query["p50_ms"] >= 0
            assert query["operators"], query["query"]
            assert all("p95_ms" in op for op in query["operators"])

    def test_curves_keyed_by_tier(self, artifact):
        assert artifact["curves"]
        for curve in artifact["curves"].values():
            assert set(curve) == {"1k"}

    def test_json_serializable_and_renderable(self, artifact):
        json.dumps(artifact)
        text = render_report(artifact)
        assert "obj/s" in text and "p95" in text

    def test_validate_rejects_malformed(self, artifact):
        for mutilate in (
            lambda p: p.pop("tiers"),
            lambda p: p.__setitem__("suite", "other"),
            lambda p: p.__setitem__("schema_version", 999),
            lambda p: p["tiers"][0].pop("ingest"),
            lambda p: p["tiers"][0]["modes"][0]["queries"][0].pop("p95_ms"),
            lambda p: p["tiers"][0]["modes"][0].pop("skipped"),
        ):
            broken = copy.deepcopy(artifact)
            mutilate(broken)
            with pytest.raises(ValueError):
                validate_artifact(broken)


class TestReproducibility:
    def test_strip_timings_zeroes_latency_but_keeps_rows(self, artifact):
        stripped = strip_timings(artifact)
        tier = stripped["tiers"][0]
        assert tier["ingest"]["objects_per_sec"] == 0
        assert tier["ingest"]["objects"] == 1_000
        query = tier["modes"][0]["queries"][0]
        assert query["p95_ms"] == 0 and query["rows"] >= 0
        # The original is untouched.
        assert artifact["tiers"][0]["ingest"]["objects_per_sec"] > 0


class TestBaselineGate:
    def test_identical_runs_pass(self, artifact):
        assert compare_to_baseline(artifact, artifact) == []

    def test_flags_ingest_regression(self, artifact):
        slow = copy.deepcopy(artifact)
        slow["tiers"][0]["ingest"]["objects_per_sec"] = (
            artifact["tiers"][0]["ingest"]["objects_per_sec"] / 3
        )
        problems = compare_to_baseline(slow, artifact)
        assert any("ingest" in line for line in problems)

    def test_flags_p95_regression(self, artifact):
        slow = copy.deepcopy(artifact)
        slow["tiers"][0]["modes"][0]["worst_p95_ms"] = (
            artifact["tiers"][0]["modes"][0]["worst_p95_ms"] * 3 + 1
        )
        problems = compare_to_baseline(slow, artifact)
        assert any("worst p95" in line for line in problems)

    def test_within_2x_band_passes(self, artifact):
        wobbly = copy.deepcopy(artifact)
        wobbly["tiers"][0]["modes"][0]["worst_p95_ms"] = (
            artifact["tiers"][0]["modes"][0]["worst_p95_ms"] * 1.8
        )
        wobbly["tiers"][0]["ingest"]["objects_per_sec"] = (
            artifact["tiers"][0]["ingest"]["objects_per_sec"] / 1.8
        )
        assert compare_to_baseline(wobbly, artifact) == []

    def test_unknown_tiers_and_modes_are_ignored(self, artifact):
        baseline = copy.deepcopy(artifact)
        baseline["tiers"][0]["tier"] = "other"
        assert compare_to_baseline(artifact, baseline) == []
        # A baseline mode the payload did not run is not a regression.
        richer = copy.deepcopy(artifact)
        extra = copy.deepcopy(richer["tiers"][0]["modes"][0])
        extra["join_mode"] = "nested"
        richer["tiers"][0]["modes"].append(extra)
        assert compare_to_baseline(artifact, richer) == []

    def test_payload_mode_missing_from_baseline_is_reported(self, artifact):
        """A mode with nothing to compare against must not pass silently:
        a re-keyed mode grid or a stale baseline would disable the gate."""
        payload = copy.deepcopy(artifact)
        extra = copy.deepcopy(payload["tiers"][0]["modes"][0])
        extra["plan"] = "typed"
        payload["tiers"][0]["modes"].append(extra)
        problems = compare_to_baseline(payload, artifact)
        assert problems == [
            "1k plan=typed join=hash: no baseline entry to compare"
        ]
