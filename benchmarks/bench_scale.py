"""Scale benchmark: ingest throughput and latency percentiles by tier.

A thin harness over :mod:`repro.bench.scale` — the fixed query suite
(paper shapes + the S/J workloads) over seeded
:mod:`repro.workloads.scale` populations, across
``plan``/``join_mode`` modes, emitting
``benchmarks/BENCH_scale.json`` with the full generation spec embedded.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py
        [--tiers 1k 10k 100k] [--rounds N] [--seed N]
        [--modes cost:hash cost:nested ...]
        [--json PATH] [--baseline PATH]

``--baseline`` compares against a previous artifact and exits non-zero
on a >2x regression of ingest throughput or worst-case query p95, each
scaled by the perfbench ``SpeedProbe`` loop time this script records
beside every tier (``probe_ms``) — the CI gate.  Through pytest the 1k
tier runs by default and the 10^5/10^6 tiers are ``slow``-marked
behind ``--runslow``::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py [--runslow]
"""

from __future__ import annotations

import json

import pytest

from repro.bench.scale import (
    MODES,
    compare_to_baseline,
    render_report,
    run_scale_benchmark,
    strip_timings,
    validate_artifact,
)


def test_scale_artifact_1k_valid_and_reproducible():
    payload = run_scale_benchmark(
        tiers=("1k",),
        rounds=1,
        modes=[("cost", "hash")],
    )
    validate_artifact(payload)
    again = run_scale_benchmark(
        tiers=("1k",),
        rounds=1,
        modes=[("cost", "hash")],
    )
    assert json.dumps(strip_timings(payload), sort_keys=True) == json.dumps(
        strip_timings(again), sort_keys=True
    )


def test_scale_1k_10k_all_modes():
    """The CI tier: every plan/join_mode combination at 1k and 10k."""
    payload = run_scale_benchmark(tiers=("1k", "10k"), rounds=2)
    validate_artifact(payload)
    for tier in payload["tiers"]:
        for mode in tier["modes"]:
            assert mode["queries"], (tier["tier"], mode["plan"])


@pytest.mark.slow
def test_scale_100k_tier():
    payload = run_scale_benchmark(tiers=("100k",), rounds=2)
    validate_artifact(payload)


@pytest.mark.slow
def test_scale_1m_tier():
    payload = run_scale_benchmark(
        tiers=("1m",), rounds=1, modes=[("cost", "hash")]
    )
    validate_artifact(payload)


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiers", nargs="+", default=["1k", "10k", "100k"]
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--modes",
        nargs="+",
        metavar="PLAN:JOIN",
        default=None,
        help="modes, e.g. cost:hash cost:nested (default: all of "
        f"{[':'.join(mode) for mode in MODES]})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the artifact (benchmarks/BENCH_scale.json in CI)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="compare against a previous artifact; exit 1 on a >2x "
        "probe-scaled regression of ingest throughput or worst-case p95",
    )
    args = parser.parse_args()
    def parse_mode(text: str):
        fields = text.split(":")
        if len(fields) != 2:
            raise SystemExit(f"bad --modes entry {text!r}; want PLAN:JOIN")
        return (fields[0], fields[1])

    modes = (
        [parse_mode(pair) for pair in args.modes]
        if args.modes
        else tuple(MODES)
    )
    from bench_pipeline import probed  # the sibling script

    # One run per tier, with the host's probe time recorded beside it.
    payload = None
    for tier in args.tiers:
        part, probe_ms = probed(
            run_scale_benchmark,
            tiers=(tier,),
            rounds=args.rounds,
            seed=args.seed,
            progress=print,
            modes=modes,
        )
        part["tiers"][0]["probe_ms"] = round(probe_ms, 4)
        if payload is None:
            payload = part
            continue
        payload["tiers"] += part["tiers"]
        for name, curve in part["curves"].items():
            payload["curves"].setdefault(name, {}).update(curve)
    validate_artifact(payload)
    print()
    print(render_report(payload))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        problems = compare_to_baseline(payload, baseline)
        if problems:
            print("\nREGRESSIONS vs baseline:")
            for line in problems:
                print(f"  {line}")
            return 1
        print(f"\nno >2x regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
