"""Differential testing of the XSQL engines.

The repo carries three independent implementations of the same
declarative semantics — the operator tree every ``Session.query`` plan
lowers to, the literal §3.4 :class:`~repro.xsql.evaluator.NaiveEvaluator`,
and the Theorem 3.1 F-logic translation — plus a storage (encode, WAL
replay, decode) round-trip that must be observationally invisible.  The
oracle runs each query under every plan mode, join mode and session
scope of its engine table.  This package hardens them against each
other:

* :mod:`repro.difftest.grammar` — a seeded, grammar-driven generator of
  random well-formed XSQL queries over any schema/catalogue;
* :mod:`repro.difftest.oracle` — runs one query through every engine and
  compares the result relations as order-insensitive multisets;
* :mod:`repro.difftest.shrink` — minimizes failing queries by deleting
  and simplifying AST nodes;
* :mod:`repro.difftest.corpus` — replayable counterexample files under
  ``tests/corpus/`` (the pytest suite replays them deterministically);
* :mod:`repro.difftest.runner` — the fuzz loop behind
  ``python -m repro.difftest``.

See ``docs/DIFFTEST.md`` for the grammar, the oracle matrix, and how to
add a new engine.
"""

from repro.difftest.corpus import CorpusCase, iter_corpus, load_case, save_case
from repro.difftest.grammar import GeneratorConfig, QueryGenerator, SchemaModel
from repro.difftest.oracle import EngineOutcome, Oracle, OracleReport
from repro.difftest.runner import FuzzStats, run_fuzz
from repro.difftest.shrink import shrink_query

__all__ = [
    "CorpusCase",
    "EngineOutcome",
    "FuzzStats",
    "GeneratorConfig",
    "Oracle",
    "OracleReport",
    "QueryGenerator",
    "SchemaModel",
    "iter_corpus",
    "load_case",
    "run_fuzz",
    "save_case",
    "shrink_query",
]
