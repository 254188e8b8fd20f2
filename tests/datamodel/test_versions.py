"""Unit tests for the MVCC version layer (versions.py).

Covers the mutation ticket, pin/unpin lifecycle and chain GC, the
copy-on-write pre-image families (cells, memberships, known set,
relations), the pinned schema value and atomic DDL, and the read-only
StoreView surface.
"""

import sys
import threading
import time

import pytest

from repro.datamodel import ObjectStore, PythonMethod
from repro.datamodel.versions import StoreView
from repro.errors import (
    CyclicHierarchyError,
    SnapshotReadOnlyError,
    UnknownClassError,
)
from repro.oid import Atom, Value
from repro.storage import MemoryEngine, StoreJournal, decode_store


ANN = Atom("ann")


def seeded_store() -> ObjectStore:
    store = ObjectStore()
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Employee", "Salary", "Numeral")
    store.create_object(ANN, ["Employee"])
    store.set_attr(ANN, "Name", "Ann")
    store.set_attr(ANN, "Age", 30)
    return store


class TestVersion:
    def test_every_mutator_advances_the_ticket(self):
        store = seeded_store()
        before = store.ticket
        store.set_attr(ANN, "Age", 31)
        assert store.ticket > before

    def test_ticket_catches_relation_inserts(self):
        # The ticket is what makes relation churn visible to cost plans
        # and path caches; the schema value does not move.
        store = seeded_store()
        store.declare_relation("Likes", ["who", "what"])
        before, schema = store.ticket, store.schema
        store.insert_tuple("Likes", [Atom("ann"), Value("jazz")])
        assert store.ticket > before
        assert store.schema is schema

    def test_index_toggles_and_relations_are_not_schema(self):
        store = seeded_store()
        schema = store.schema
        for mutate in (
            lambda: store.enable_index("Name"),
            lambda: store.disable_index("Name"),
            lambda: store.declare_relation("Likes", ["who", "what"]),
        ):
            before = store.ticket
            mutate()
            assert store.ticket == before + 1
        assert store.schema is schema

    def test_read_path_discovery_does_not_advance(self):
        store = seeded_store()
        before = store.ticket
        store.invoke_kinded(Atom("ann"), Atom("Age"))
        store.extent("Person")
        assert store.ticket == before


class TestPinLifecycle:
    def test_no_pins_means_no_recording(self):
        store = seeded_store()
        store.set_attr(ANN, "Age", 31)
        status = store.version_status()
        assert status["pins"] == 0
        assert status["cell_chain_entries"] == 0

    def test_chains_grow_only_while_pinned(self):
        store = seeded_store()
        pin = store.pin()
        store.set_attr(ANN, "Age", 31)
        assert store.version_status()["cell_chain_entries"] == 1
        pin.release()
        assert store.version_status()["cell_chain_entries"] == 0

    def test_release_is_idempotent(self):
        store = seeded_store()
        pin = store.pin()
        pin.release()
        pin.release()
        assert store.version_status()["pins"] == 0

    def test_skip_append_bounds_chain_growth(self):
        # One pin era -> at most one chain entry per key, however many
        # times the key is rewritten.
        store = seeded_store()
        with store.pin():
            for age in range(31, 60):
                store.set_attr(ANN, "Age", age)
            assert store.version_status()["cell_chain_entries"] == 1

    def test_gc_keeps_entries_for_surviving_pins(self):
        store = seeded_store()
        old = store.pin()
        store.set_attr(ANN, "Age", 31)
        young = store.pin()
        store.set_attr(ANN, "Age", 32)
        young.release()
        # The old pin still needs both pre-images (31's chain entry is
        # above its floor); releasing it drops everything.
        assert store.version_status()["cell_chain_entries"] >= 1
        old.release()
        assert store.version_status()["cell_chain_entries"] == 0


class TestSnapshotReads:
    def test_scalar_pre_image(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.set_attr(ANN, "Age", 99)
            assert view.invoke(Atom("ann"), Atom("Age")) == {Value(30)}
            assert store.invoke(Atom("ann"), Atom("Age")) == {Value(99)}

    def test_unset_resurfaces_in_snapshot(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.unset_attr(ANN, "Age")
            assert view.invoke(Atom("ann"), Atom("Age")) == {Value(30)}

    def test_post_pin_object_is_invisible(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.create_object(Atom("bob"), ["Person"])
            assert Atom("bob") not in view.known_objects()
            assert Atom("bob") not in view.extent("Person")
            assert Atom("bob") in store.extent("Person")

    def test_membership_pre_image(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.remove_instance(ANN, "Employee")
            assert Atom("ann") in view.extent("Employee")
            assert Atom("ann") not in store.extent("Employee")

    def test_purge_pre_image_is_complete(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.purge_object(ANN)
            assert Atom("ann") in view.extent("Person")
            assert view.invoke(Atom("ann"), Atom("Name")) == {Value("Ann")}
            assert Atom("ann") not in store.known_objects()

    def test_relation_pre_image(self):
        store = seeded_store()
        store.declare_relation("Likes", ["who", "what"])
        store.insert_tuple("Likes", [Atom("ann"), Value("jazz")])
        with store.snapshot_view() as view:
            store.insert_tuple("Likes", [Atom("ann"), Value("rock")])
            assert len(view.relation("Likes")) == 1
            assert len(store.relation("Likes")) == 2

    def test_relations_have_one_writer(self):
        # A relation changes only through insert_tuple: the object
        # store.relation() returns has no public method that writes, and
        # the one writer moves the ticket, keeps the row out of views
        # pinned before it, journals it and registers its oids.
        engine = MemoryEngine()
        store = seeded_store()
        store.set_journal(StoreJournal(engine, store))
        store.declare_relation("Likes", ["who", "what"])
        relation = store.relation("Likes")
        readers = {
            "arity", "check_row", "column", "column_names", "name", "rows",
            "sorted_rows",
        }
        public = {name for name in dir(relation) if not name.startswith("_")}
        assert public == readers
        row = (Atom("zoe"), Value("jazz"))
        with store.snapshot_view() as view:
            before = store.ticket
            store.insert_tuple("Likes", row)
            assert store.ticket == before + 1
            assert row not in view.relation("Likes")
            assert Atom("zoe") not in view.known_objects()
            assert row in store.relation("Likes")
        assert row in decode_store(engine).relation("Likes")
        assert {Atom("zoe"), Value("jazz")} <= store.known_objects()

    def test_post_pin_relation_is_absent(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.declare_relation("Hates", ["who", "what"])
            with pytest.raises(UnknownClassError):
                view.relation("Hates")

    def test_post_pin_ddl_is_invisible(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.declare_class("Robot")
            assert Atom("Robot") not in view.hierarchy
            assert Atom("Robot") in store.hierarchy

    def test_view_version_is_stable(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            ticket, schema = view.ticket, view.schema
            store.set_attr(ANN, "Age", 77)
            store.declare_class("Robot")
            assert (view.ticket, view.schema) == (ticket, schema)
            assert store.ticket > ticket
            assert store.schema is not schema


class TestSchemaValue:
    def test_schema_references_stay_pinned(self):
        # A reference taken from a view before post-pin DDL is the
        # pinned schema, not the live one.
        store = seeded_store()
        with store.snapshot_view() as view:
            hierarchy = view.hierarchy
            catalogue = view.catalogue
            signatures = view.signatures_of("Employee")
            methods = view.methods_defined_on(ANN)
            store.declare_class("Manager", ["Employee"])
            store.declare_signature("Employee", "Badge", "String")
            store.define_method(
                "Employee",
                PythonMethod(name=Atom("Bonus"), fn=lambda s, o: Value(1)),
            )
            for current in (hierarchy, view.hierarchy):
                assert Atom("Manager") not in current
            for current in (catalogue, view.catalogue):
                assert not current.is_method(Atom("Badge"))
                assert not current.is_method(Atom("Bonus"))
            assert view.signatures_of("Employee") == signatures
            assert view.methods_defined_on(ANN) == methods
            assert Atom("Manager") in store.hierarchy
            assert Atom("Bonus") in store.methods_defined_on(ANN)

    def test_failed_ddl_publishes_nothing(self):
        store = ObjectStore()
        engine = MemoryEngine()
        store.set_journal(StoreJournal(engine, store))
        store.declare_class("A")
        store.declare_class("B", ["A"])
        schema, ticket = store.schema, store.ticket
        journaled = engine.items()
        with pytest.raises(CyclicHierarchyError):
            store.declare_class("A", ["C", "B"])
        assert store.schema is schema
        assert store.ticket == ticket
        assert Atom("C") not in store.hierarchy
        assert engine.items() == journaled

    def test_published_schema_is_never_edited(self):
        store = seeded_store()
        schema = store.schema
        parents = schema.hierarchy.direct_superclasses(Atom("Employee"))
        store.declare_class("Employee", ["Person", "Manager"])
        store.declare_signature("Employee", "Badge", "String")
        assert store.schema is not schema
        assert schema.hierarchy.direct_superclasses(Atom("Employee")) == (
            parents
        )
        assert Atom("Manager") not in schema.hierarchy
        assert not schema.declared_signatures(
            Atom("Employee"), Atom("Badge")
        )


class TestStoreViewSurface:
    def test_every_mutator_raises(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            for call in (
                lambda: view.declare_class("X"),
                lambda: view.declare_signature("Person", "Z", "String"),
                lambda: view.create_object("x", ["Person"]),
                lambda: view.add_instance(ANN, "Person"),
                lambda: view.remove_instance(ANN, "Employee"),
                lambda: view.purge_object(ANN),
                lambda: view.set_attr(ANN, "Age", 1),
                lambda: view.set_attr_set(ANN, "Age", [1]),
                lambda: view.add_to_set(ANN, "Age", 1),
                lambda: view.unset_attr(ANN, "Age"),
                lambda: view.enable_index("Age"),
                lambda: view.disable_index("Age"),
                lambda: view.declare_relation("R", ["a"]),
                lambda: view.insert_tuple("R", [Atom("x")]),
            ):
                with pytest.raises(SnapshotReadOnlyError):
                    call()

    def test_indexes_never_claim_completeness(self):
        store = seeded_store()
        store.enable_index("Name")
        with store.snapshot_view() as view:
            assert store.index_is_complete_for(Atom("Name"))
            assert not view.index_is_complete_for(Atom("Name"))
            # The forward-evaluation fallback still answers correctly.
            assert Value("Ann") in view.invoke(Atom("ann"), Atom("Name"))

    def test_at_requires_matching_pin(self):
        store = seeded_store()
        pin = store.pin()
        view = store.at(pin)
        assert isinstance(view, StoreView)
        view.release()

    def test_describe_reads_through_the_snapshot(self):
        store = seeded_store()
        with store.snapshot_view() as view:
            store.set_attr(ANN, "Name", "Renamed")
            assert "Ann" in view.describe(ANN)


class TestConcurrentRelationReads:
    def test_views_read_exactly_the_rows_at_their_pin(self):
        # One writer inserts rows while readers pin views and read the
        # relation twice: each view must hold exactly the rows inserted
        # before its pin, before and after the writer moves on.  With a
        # relation written in place after it was chained, a view would
        # see rows from after its pin.
        store = ObjectStore()
        store.declare_relation("R", ["n"])
        first = store.ticket + 1
        total = 2000
        failures = []
        done = threading.Event()

        def write():
            try:
                for n in range(total):
                    store.insert_tuple("R", [Value(n)])
            finally:
                done.set()

        def read():
            while not done.is_set():
                with store.snapshot_view() as view:
                    expected = {
                        (Value(n),) for n in range(view.ticket - first + 1)
                    }
                    seen = view.relation("R").rows()
                    time.sleep(0)  # let the writer move past the pin
                    again = view.relations()["R"].rows()
                    if not seen == again == expected:
                        failures.append((view.ticket, len(seen), len(again)))
                        return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert len(store.relation("R")) == total
        assert store.version_status()["pins"] == 0
