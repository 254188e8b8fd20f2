"""Shared fixtures: paper database sessions, schemas, synthetic stores."""

import os
from pathlib import Path

import pytest

#: The package source the suite tests; child interpreters import it too.
SOURCE = str(Path(__file__).resolve().parent.parent / "src")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked @pytest.mark.slow",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)

from repro import Session
from repro.schema.figure1 import build_figure1_schema
from repro.schema.nobel import build_nobel_schema, populate_nobel_database
from repro.schema.typing_examples import (
    extend_with_typing_classes,
    populate_oo_forum,
)
from repro.schema.university import (
    build_university_schema,
    populate_university_database,
)
from repro.storage import MemoryEngine, encode_store
from repro.workloads.paper_db import populate_paper_database


@pytest.fixture
def child_env() -> dict:
    """The environment of a child interpreter: ours, with the package
    source first on ``PYTHONPATH`` (pytest's own path setting does not
    reach a subprocess)."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SOURCE if not inherited else os.pathsep.join([SOURCE, inherited])
    )
    return env


def make_paper_session() -> Session:
    session = Session()
    build_figure1_schema(session.store)
    populate_paper_database(session.store)
    return session


@pytest.fixture
def paper_session() -> Session:
    """A fresh Figure 1 + paper-instance session (mutable per test)."""
    return make_paper_session()


@pytest.fixture(scope="session")
def shared_paper_session() -> Session:
    """A shared session for read-only query tests (fast)."""
    return make_paper_session()


@pytest.fixture
def typing_session() -> Session:
    """Paper session extended with the §6.2 Organization/Association part."""
    session = make_paper_session()
    extend_with_typing_classes(session.store)
    populate_oo_forum(session.store)
    return session


@pytest.fixture
def nobel_session() -> Session:
    session = Session()
    build_nobel_schema(session.store)
    populate_nobel_database(session.store)
    return session


@pytest.fixture
def university_session() -> Session:
    session = Session()
    build_university_schema(session.store)
    populate_university_database(session.store)
    return session


def store_image(store) -> MemoryEngine:
    """A rollback point: *store* encoded into an in-memory KV engine.

    Roll back with ``session.replace_store(decode_store(image))``.
    """
    image = MemoryEngine()
    encode_store(store, image)
    return image


def names(result) -> list:
    """Sorted string forms of a single-column result (test helper)."""
    return sorted(str(value) for value in result.single_column())
