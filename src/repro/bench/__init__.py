"""The experiment harness: paper-claim vs measured, in one run.

``python -m repro.bench.report`` executes every experiment of the
per-experiment index in DESIGN.md and prints the rows that EXPERIMENTS.md
records — answers for the worked examples, timings and ratios for the
performance claims.
"""
