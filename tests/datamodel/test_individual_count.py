"""``ObjectStore.individual_count`` is exactly ``len(individual_universe())``.

The cost model sizes the individual sort from the count on every
compile, so the count must track every way the known set changes:
bulk loads, purges, a stored atom later declared as a class, object
creation, read-path discovery through computed methods, and pinned
snapshot views.
"""

import pytest

from repro.datamodel import ObjectStore, PythonMethod
from repro.oid import Atom, FuncOid
from repro.workloads.scale import ScaleSpec, generate_scaled


def assert_exact(store) -> int:
    count = store.individual_count()
    assert count == len(store.individual_universe())
    return count


@pytest.fixture
def store() -> ObjectStore:
    s = ObjectStore()
    s.declare_class("Person")
    s.declare_class("Employee", ["Person"])
    s.declare_signature("Person", "Name", "String")
    s.declare_signature("Person", "Friend", "Person")
    s.create_object(Atom("pam"), ["Employee"])
    s.create_object(Atom("tom"), ["Person"])
    s.set_attr(Atom("pam"), "Name", "Pam")
    return s


def test_scale_store():
    store = generate_scaled(ScaleSpec(n_objects=10_000, seed=3))
    assert assert_exact(store) > 10_000


def test_after_purge(store):
    before = assert_exact(store)
    store.purge_object(Atom("tom"))
    assert assert_exact(store) == before - 1


def test_after_declaring_a_stored_atom_as_a_class(store):
    store.set_attr(Atom("pam"), "Friend", Atom("Robot"))
    before = assert_exact(store)
    assert Atom("Robot") in store.individual_universe()
    store.declare_class("Robot", ["Person"])
    assert assert_exact(store) == before - 1


def test_after_create_object(store):
    before = assert_exact(store)
    store.create_object(Atom("sue"), ["Person"])
    assert assert_exact(store) == before + 1


def test_after_read_path_discovery(store):
    store.define_method(
        "Person",
        PythonMethod(
            name=Atom("Twin"),
            fn=lambda s, owner: FuncOid("twin", (owner,)),
        ),
    )
    before = assert_exact(store)
    ticket = store.ticket
    store.invoke(Atom("tom"), "Twin")
    assert store.ticket == ticket  # discovery is not a write
    assert assert_exact(store) == before + 1


def test_pinned_view_after_later_writes(store):
    store.define_method(
        "Person",
        PythonMethod(
            name=Atom("Twin"),
            fn=lambda s, owner: FuncOid("twin", (owner,)),
        ),
    )
    with store.snapshot_view() as view:
        pinned = assert_exact(view)
        store.create_object(Atom("sue"), ["Person"])
        store.purge_object(Atom("tom"))
        store.set_attr(Atom("pam"), "Friend", Atom("Robot"))
        store.declare_class("Robot", ["Person"])
        assert assert_exact(view) == pinned
        assert assert_exact(store) == pinned
        # Discovery through the view stays view-local and is counted
        # apart from the pinned known set.
        view.invoke(Atom("pam"), "Twin")
        assert assert_exact(view) == pinned + 1
        view.invoke(Atom("pam"), "Twin")
        assert assert_exact(view) == pinned + 1
