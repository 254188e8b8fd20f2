"""The one write path: checks, one ticket, one journal batch, two primitives.

Every data mutator checks its inputs before anything moves, then
changes facts only through ``ObjectStore._put_cell`` and
``ObjectStore._put_membership`` inside one ``_mutation()``.  So a
rejected write moves nothing, a public mutator commits one journal
batch, and the derived state the primitives maintain — statistics,
inverted indexes, the journaled engine image — always equals that of a
store rebuilt from scratch out of the final records.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel.objects import ScalarCell, SetCell
from repro.datamodel.store import ObjectStore
from repro.errors import ArityError, UnknownClassError
from repro.oid import Atom, Value
from repro.storage import MemoryEngine, StoreJournal, decode_store, pack_key
from repro.storage.smoke import canonical

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INDEXED = ("S", "T", "R")
OWNERS = 4


def journaled_store():
    engine = MemoryEngine()
    store = ObjectStore()
    store.set_journal(StoreJournal(engine, store))
    store.declare_class("A")
    store.declare_class("B", ["A"])
    for method in INDEXED:
        store.enable_index(method)
    return engine, store


def rebuilt(store: ObjectStore) -> ObjectStore:
    """A fresh store written once from *store*'s final records."""
    fresh = ObjectStore()
    fresh.declare_class("A")
    fresh.declare_class("B", ["A"])
    for owner, cells in store.records():
        if not fresh.catalogue.is_class(owner):
            fresh.create_object(
                owner, sorted(store.explicit_classes_of(owner), key=str)
            )
        for (method, args), cell in cells.items():
            if cell.set_valued:
                fresh.set_attr_set(owner, method, cell.values, args)
            else:
                fresh.set_attr(owner, method, cell.value, args)
    for method in store.indexed_methods():
        fresh.enable_index(method)
    return fresh


owner = st.integers(0, OWNERS - 1).map(lambda i: Atom(f"o{i}"))
value = st.one_of(st.integers(0, 3).map(Value), owner)
args = st.sampled_from([(), (Atom("k"),)])
cls = st.sampled_from(["A", "B", "Nope"])
#: The owner of a cell of the one-argument method "R": an object, or a
#: class holding a default.
subject = st.one_of(owner, st.sampled_from([Atom("A"), Atom("B")]))
one_arg = st.sampled_from([(Atom("k"),), (Value(1),)])

#: All eight data mutators.  "M" is written both as a scalar and as a
#: set, and "Nope" is no class, so some steps raise.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("create_object"), owner, st.lists(cls, max_size=2)),
        st.tuples(st.just("add_instance"), owner, cls),
        st.tuples(st.just("remove_instance"), owner, cls),
        st.tuples(st.just("purge_object"), owner),
        st.tuples(
            st.just("set_attr"), owner, st.sampled_from(["S", "M"]), value,
            args,
        ),
        st.tuples(
            st.just("set_attr_set"), owner, st.sampled_from(["T", "M"]),
            st.frozensets(value, max_size=3), args,
        ),
        st.tuples(
            st.just("add_to_set"), owner, st.sampled_from(["T", "M"]), value,
            args,
        ),
        st.tuples(
            st.just("unset_attr"), owner, st.sampled_from(["S", "T", "M"]),
            args,
        ),
        st.tuples(st.just("set_attr"), subject, st.just("R"), value, one_arg),
        st.tuples(st.just("unset_attr"), subject, st.just("R"), one_arg),
    ),
    max_size=40,
)


def apply(store: ObjectStore, step) -> None:
    kind, *payload = step
    if kind in ("set_attr", "set_attr_set", "add_to_set"):
        target, method, val, arg_oids = payload
        getattr(store, kind)(target, method, val, arg_oids)
    elif kind == "unset_attr":
        target, method, arg_oids = payload
        store.unset_attr(target, method, arg_oids)
    else:
        getattr(store, kind)(*payload)


def changes_nothing(store: ObjectStore, step) -> bool:
    """Is *step* a cell write that would store the cell already stored?"""
    kind, *payload = step
    if kind not in ("set_attr", "set_attr_set", "add_to_set"):
        return False
    target, method, val, arg_oids = payload
    stored = store.explicit_cell(target, method, arg_oids)
    if kind == "set_attr":
        return stored == ScalarCell(val)
    if kind == "set_attr_set":
        return stored == SetCell(frozenset(val))
    return isinstance(stored, SetCell) and val in stored.values


def without_index_registry(image):
    registry = pack_key(("i",))
    return [kv for kv in image if not kv[0].startswith(registry)]


class TestOneWritePath:
    @SETTINGS
    @given(script=steps, pin_at=st.one_of(st.none(), st.integers(0, 40)))
    def test_derived_state_equals_a_rebuild(self, script, pin_at):
        engine, store = journaled_store()
        pinned = None
        for position, step in enumerate(script):
            if position == pin_at:
                pinned = (store.snapshot_view(), canonical(store))
            ticket, batches = store.ticket, engine.batches_applied
            status = store.version_status()
            unchanged = changes_nothing(store, step)
            try:
                apply(store, step)
            except (ArityError, UnknownClassError):
                # A rejected write moves nothing.
                assert store.ticket == ticket
                assert engine.batches_applied == batches
                assert store.version_status() == status
                continue
            if unchanged:
                # Neither does a cell write that changes nothing.
                assert store.ticket == ticket
                assert engine.batches_applied == batches
                assert store.version_status() == status
                continue
            assert store.ticket == ticket + 1
            assert engine.batches_applied - batches <= 1

        decoded = decode_store(engine)
        reference = rebuilt(store)
        stats = reference.statistics.snapshot()
        assert store.statistics.snapshot() == stats
        assert decoded.statistics.snapshot() == stats
        entries = reference._indexes._entries
        assert store._indexes._entries == entries
        assert decoded._indexes._entries == entries
        image = canonical(reference)
        assert canonical(store) == image
        assert canonical(decoded) == image
        if pinned is not None:
            view, at_pin = pinned
            assert without_index_registry(
                canonical(view)
            ) == without_index_registry(at_pin)
            view.release()


class TestRejectedWritesMoveNothing:
    CLASHES = [
        ("set_attr", "Set", Value(1)),
        ("set_attr_set", "Scalar", [Value(1)]),
        ("add_to_set", "Scalar", Value(2)),
    ]

    @pytest.mark.parametrize("pin", [False, True], ids=["unpinned", "pinned"])
    @pytest.mark.parametrize(
        "mutator, method, payload", CLASHES, ids=[c[0] for c in CLASHES]
    )
    def test_kind_clash(self, mutator, method, payload, pin):
        store = ObjectStore()
        mary = Atom("mary")
        store.set_attr(mary, "Scalar", 1)
        store.set_attr_set(mary, "Set", [Value(1)])
        view = store.snapshot_view() if pin else None
        ticket, known = store.ticket, store.known_objects()
        status = store.version_status()
        with pytest.raises(ArityError):
            getattr(store, mutator)(mary, method, payload)
        assert store.ticket == ticket
        assert store.known_objects() == known
        assert store.version_status() == status
        if view is not None:
            view.release()


class TestOneMutatorOneBatch:
    def test_create_object_commits_one_batch(self):
        engine, store = journaled_store()
        before = engine.batches_applied
        store.create_object(Atom("x"), ["A", "B"])
        assert engine.batches_applied == before + 1
        back = decode_store(engine)
        assert back.explicit_classes_of(Atom("x")) == {Atom("A"), Atom("B")}

    def test_create_object_takes_one_ticket(self):
        store = ObjectStore()
        store.declare_class("A")
        store.declare_class("B")
        ticket = store.ticket
        store.create_object(Atom("x"), ["A", "B"])
        assert store.ticket == ticket + 1


class TestEveryRecordIsJournaled:
    """An object journals its ``("o", obj)`` marker once, however its
    record was made, and a cell write re-puts nothing."""

    def test_add_then_remove_instance_keeps_the_object(self):
        engine, store = journaled_store()
        store.add_instance(Atom("o0"), "A")
        store.remove_instance(Atom("o0"), "A")
        assert Atom("o0") in dict(store.records())
        assert canonical(decode_store(engine)) == canonical(store)

    def test_cell_write_puts_no_owner_marker(self):
        engine, store = journaled_store()
        store.set_attr(Atom("o0"), "S", Value(1))
        marker = pack_key(("o", Atom("o0")))
        assert engine.get(marker) is not None
        engine.delete(marker)  # the next write must not put it back
        store.set_attr(Atom("o0"), "S", Value(2))
        assert engine.get(marker) is None


class TestUnchangedWritesMoveNothing:
    WRITES = [
        ("set_attr", "S", Value(1)),
        ("set_attr_set", "T", [Value(1), Value(2)]),
        ("add_to_set", "T", Value(2)),
    ]

    @pytest.mark.parametrize("pin", [False, True], ids=["unpinned", "pinned"])
    @pytest.mark.parametrize(
        "mutator, method, payload", WRITES, ids=[w[0] for w in WRITES]
    )
    def test_no_ticket_no_batch_no_chain_entry(
        self, mutator, method, payload, pin
    ):
        engine, store = journaled_store()
        store.set_attr(Atom("o0"), "S", Value(1))
        store.set_attr_set(Atom("o0"), "T", [Value(1), Value(2)])
        view = store.snapshot_view() if pin else None
        ticket, batches = store.ticket, engine.batches_applied
        status = store.version_status()
        getattr(store, mutator)(Atom("o0"), method, payload)
        assert store.ticket == ticket
        assert engine.batches_applied == batches
        assert store.version_status() == status
        if view is not None:
            view.release()

    def test_an_equal_literal_of_another_type_is_stored(self):
        # Value(1) == Value(1.0) as oids, but the stored literal changes.
        store = ObjectStore()
        store.set_attr(Atom("o0"), "S", Value(1))
        ticket = store.ticket
        store.set_attr(Atom("o0"), "S", Value(1.0))
        assert store.ticket == ticket + 1
        assert repr(store.explicit_cell(Atom("o0"), "S").value) == (
            "Value(1.0)"
        )


class TestPinnedRecords:
    """A pinned view holds exactly the records the store held at the pin
    (views disable the inverted indexes, so the registry is left out)."""

    def test_object_purged_after_the_pin(self):
        _engine, store = journaled_store()
        store.create_object(Atom("o0"))
        view = store.snapshot_view()
        at_pin = without_index_registry(canonical(store))
        store.purge_object(Atom("o0"))
        assert without_index_registry(canonical(view)) == at_pin
        view.release()

    @pytest.mark.parametrize("late", ["create_object", "add_remove"])
    def test_record_made_after_the_pin(self, late):
        _engine, store = journaled_store()
        store.set_attr(Atom("o0"), "S", Atom("o1"))  # o1 known, no record
        view = store.snapshot_view()
        at_pin = without_index_registry(canonical(store))
        if late == "create_object":
            store.create_object(Atom("o1"))
        else:
            store.add_instance(Atom("o1"), "A")
            store.remove_instance(Atom("o1"), "A")
        assert without_index_registry(canonical(view)) == at_pin
        view.release()
