"""Codec: key packing, cell bodies, journal mirroring, store round-trip."""

import pytest

from repro.datamodel.store import ObjectStore
from repro.oid import Atom, FuncOid, Value
from repro.schema.figure1 import build_figure1_schema
from repro.schema.typing_examples import extend_with_typing_classes
from repro.storage import (
    CodecError,
    MemoryEngine,
    StoreJournal,
    decode_store,
    encode_store,
    pack_key,
    prefix_range,
    unpack_key,
)
from repro.storage.codec import decode_cell_value, encode_cell_value
from repro.storage.smoke import canonical


class TestKeyPacking:
    @pytest.mark.parametrize(
        "parts",
        [
            ("s", "o"),
            ("x", Atom("Person"), Atom("mary")),
            ("f", Atom("Age"), Value(31)),
            ("f", Atom("Age"), Value(-31)),
            ("f", Atom("Pi"), Value(3.5)),
            ("f", Atom("Flag"), Value(True)),
            ("f", Atom("Flag"), Value(False)),
            ("f", Atom("Big"), Value(2**100)),
            ("f", Atom("Big"), Value(-(2**100))),
            ("r", "t", "Likes", FuncOid("qf1", (Atom("a"), Value(2)))),
            ("i", "e", Atom("M"), FuncOid("f", (FuncOid("g", ()),))),
            ("s", "nul\x00char",),
        ],
    )
    def test_round_trip(self, parts):
        assert unpack_key(pack_key(parts)) == parts

    def test_int_order_preserved(self):
        values = [-(2**63), -100, -1, 0, 1, 7, 2**63 - 1]
        packed = [pack_key((v,)) for v in values]
        assert packed == sorted(packed)

    def test_float_order_preserved(self):
        values = [-1e300, -2.5, -0.0, 0.0, 1e-9, 3.14, 1e300]
        packed = [pack_key((v,)) for v in values]
        assert sorted(packed) == sorted(packed, key=packed.index) or (
            packed == sorted(packed)
        )
        assert packed == sorted(packed)

    def test_string_order_preserved(self):
        values = ["", "a", "a\x00b", "ab", "b"]
        packed = [pack_key((v,)) for v in values]
        assert packed == sorted(packed)

    def test_prefix_range_covers_extensions_only(self):
        start, end = prefix_range(("x", Atom("Person")))
        inside = pack_key(("x", Atom("Person"), Atom("mary")))
        outside = pack_key(("x", Atom("Personnel"), Atom("bob")))
        assert start <= inside < end
        assert not (start <= outside < end)

    def test_bool_is_not_int(self):
        assert unpack_key(pack_key((True,))) == (True,)
        assert unpack_key(pack_key((1,))) == (1,)
        assert pack_key((True,)) != pack_key((1,))

    def test_unknown_component_raises(self):
        with pytest.raises(CodecError):
            pack_key((object(),))

    def test_truncated_key_raises(self):
        raw = pack_key((Atom("Person"),))
        with pytest.raises(CodecError):
            unpack_key(raw[:-1])


class TestCellValues:
    def test_scalar_round_trip(self):
        raw = encode_cell_value(True, [Value(31)])
        assert decode_cell_value(raw) == (True, [Value(31)])

    def test_set_round_trip_sorted(self):
        raw = encode_cell_value(False, [Atom("b"), Atom("a")])
        scalar, values = decode_cell_value(raw)
        assert not scalar
        assert set(values) == {Atom("a"), Atom("b")}

    def test_functional_oids(self):
        term = FuncOid("qf2", (Atom("x"), Value(1)))
        _s, values = decode_cell_value(encode_cell_value(True, [term]))
        assert values == [term]


def build_sample_store():
    store = ObjectStore()
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_class("Student", ["Person"])
    store.declare_class("TA", ["Employee", "Student"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Employee", "Salary", "Numeral")
    store.declare_signature("Person", "Children", "Person", set_valued=True)
    mary = store.create_object(Atom("mary"), ["Employee"])
    store.set_attr(mary, "Name", "Mary")
    store.set_attr(mary, "Age", 31)
    store.set_attr(mary, "Salary", 50000)
    bob = store.create_object(Atom("bob"), ["TA"])
    store.set_attr(bob, "Name", "Bob")
    store.set_attr_set(mary, "Children", [bob])
    # A class-level default cell (behavioral inheritance source).
    store.set_attr(Atom("Person"), "Age", 0)
    # An explicit inheritance resolution.
    store.resolve_inheritance("TA", "Salary", "Employee")
    store.declare_relation("Likes", ["who", "what"])
    store.insert_tuple("Likes", [mary, bob])
    store.enable_index("Name")
    return store


def _reparented(store):
    store.declare_class("B")
    store.declare_class("B", ["A"])


def _figure1_typing(store):
    build_figure1_schema(store)
    extend_with_typing_classes(store)


class TestStoreRoundTrip:
    @pytest.mark.parametrize("build", [_reparented, _figure1_typing])
    def test_round_trip_keeps_every_edge(self, build):
        # An explicit IS-A Object beside other parents survives both the
        # bulk encoder and the journal.
        store = ObjectStore()
        journaled = MemoryEngine()
        store.set_journal(StoreJournal(journaled, store))
        build(store)
        engine = MemoryEngine()
        encode_store(store, engine)
        edges = store.hierarchy.edges()
        assert decode_store(engine).hierarchy.edges() == edges
        assert decode_store(journaled).hierarchy.edges() == edges

    def test_bulk_encode_decode(self):
        store = build_sample_store()
        engine = MemoryEngine()
        report = encode_store(store, engine)
        assert report.classes == 4
        assert report.relations == 1
        back = decode_store(engine)
        assert canonical(back) == canonical(store)

    def test_round_trip_preserves_indexes(self):
        store = build_sample_store()
        engine = MemoryEngine()
        encode_store(store, engine)
        back = decode_store(engine)
        assert back.is_indexed("Name")

    def test_implicit_memberships_stay_implicit(self):
        store = ObjectStore()
        store.declare_class("Person")
        store.declare_signature("Person", "Age", "Numeral")
        mary = store.create_object(Atom("mary"), ["Person"])
        store.set_attr(mary, "Age", 31)
        engine = MemoryEngine()
        encode_store(store, engine)
        back = decode_store(engine)
        # Value(31) is implicitly a Numeral; that must not come back as
        # an explicit instance-of fact.
        assert back.explicit_classes_of(Value(31)) == frozenset()
        assert back.is_instance(Value(31), "Numeral")

    def test_decode_raises_generations_to_stamp(self):
        store = build_sample_store()
        engine = MemoryEngine()
        encode_store(store, engine)
        back = decode_store(engine)
        # The commit stamp's one counter is the ticket.
        assert back.ticket >= engine.last_stamp().ticket
        assert back.ticket >= store.ticket

    def test_skipped_implementations_reported(self):
        from repro.datamodel.methods import PythonMethod

        store = build_sample_store()
        store.define_method(
            "Person",
            PythonMethod(name=Atom("Shout"), fn=lambda s, o: frozenset()),
        )
        engine = MemoryEngine()
        report = encode_store(store, engine)
        assert any("Shout" in note for note in report.skipped)


class TestJournalMirroring:
    def make_live(self):
        engine = MemoryEngine()
        store = ObjectStore()
        store.set_journal(StoreJournal(engine, store))
        return engine, store

    def test_incremental_equals_bulk(self):
        engine, live = self.make_live()
        # Rebuild the sample store mutation by mutation through the
        # journal; the engine must hold what a bulk encode would.
        reference = build_sample_store()
        live.declare_class("Person")
        live.declare_class("Employee", ["Person"])
        live.declare_class("Student", ["Person"])
        live.declare_class("TA", ["Employee", "Student"])
        live.declare_signature("Person", "Name", "String")
        live.declare_signature("Person", "Age", "Numeral")
        live.declare_signature("Employee", "Salary", "Numeral")
        live.declare_signature(
            "Person", "Children", "Person", set_valued=True
        )
        mary = live.create_object(Atom("mary"), ["Employee"])
        live.set_attr(mary, "Name", "Mary")
        live.set_attr(mary, "Age", 31)
        live.set_attr(mary, "Salary", 50000)
        bob = live.create_object(Atom("bob"), ["TA"])
        live.set_attr(bob, "Name", "Bob")
        live.set_attr_set(mary, "Children", [bob])
        live.set_attr(Atom("Person"), "Age", 0)
        live.resolve_inheritance("TA", "Salary", "Employee")
        live.declare_relation("Likes", ["who", "what"])
        live.insert_tuple("Likes", [mary, bob])
        live.enable_index("Name")
        assert canonical(decode_store(engine)) == canonical(reference)

    def test_typing_extension_edge_is_journaled(self):
        # The §6.2 extension makes Company a subclass of Organization;
        # that edge must reach the journal like any other DDL.
        engine, live = self.make_live()
        build_figure1_schema(live)
        extend_with_typing_classes(live)
        restored = decode_store(engine)
        assert restored.hierarchy.is_subclass(
            Atom("Company"), Atom("Organization")
        )
        for cls in live.hierarchy.classes():
            assert restored.hierarchy.superclasses(
                cls
            ) == live.hierarchy.superclasses(cls)

    def test_unset_deletes_cell_but_keeps_object(self):
        engine, live = self.make_live()
        live.declare_class("Person")
        mary = live.create_object(Atom("mary"), ["Person"])
        live.set_attr(mary, "Age", 31)
        live.unset_attr(mary, "Age")
        back = decode_store(engine)
        assert back.explicit_cell(mary, "Age") is None
        assert mary in back.known_objects()

    def test_empty_set_cell_differs_from_unset(self):
        engine, live = self.make_live()
        live.declare_class("Person")
        mary = live.create_object(Atom("mary"), ["Person"])
        live.set_attr_set(mary, "Hobbies", [])
        back = decode_store(engine)
        cell = back.explicit_cell(mary, "Hobbies")
        assert cell is not None and cell.as_set() == frozenset()

    def test_purge_removes_everything(self):
        engine, live = self.make_live()
        live.declare_class("Person")
        live.enable_index("Age")
        mary = live.create_object(Atom("mary"), ["Person"])
        live.set_attr(mary, "Age", 31)
        live.purge_object(mary)
        back = decode_store(engine)
        assert mary not in back.known_objects()
        assert back.explicit_cell(mary, "Age") is None
        assert back.lookup_by_value("Age", 31) == frozenset()

    def test_remove_instance_mirrors(self):
        engine, live = self.make_live()
        live.declare_class("Person")
        mary = live.create_object(Atom("mary"), ["Person"])
        live.remove_instance(mary, "Person")
        back = decode_store(engine)
        assert back.explicit_classes_of(mary) == frozenset()

    def test_index_answers_identically_after_reopen(self):
        # The engine keeps only the index registry key; reopening
        # back-fills the index from the cells, across every write to the
        # indexed method.
        engine, live = self.make_live()
        live.declare_class("Person")
        live.enable_index("Age")
        mary = live.create_object(Atom("mary"), ["Person"])
        bob = live.create_object(Atom("bob"), ["Person"])
        ann = live.create_object(Atom("ann"), ["Person"])
        live.set_attr(mary, "Age", 31)
        live.set_attr(mary, "Age", 32)
        live.set_attr(bob, "Age", 32)
        live.set_attr(ann, "Age", 40)
        live.unset_attr(ann, "Age")
        live.set_attr(ann, "Age", 31, args=[Atom("then")])
        start, end = prefix_range(("i",))
        assert [unpack_key(k) for k, _v in engine.range_scan(start, end)] == [
            ("i", "d", Atom("Age"))
        ]
        back = decode_store(engine)
        assert back.is_indexed("Age")
        for value in (31, 32, 40):
            for args in (None, [], [Atom("then")]):
                assert back.lookup_by_value(
                    "Age", value, args
                ) == live.lookup_by_value("Age", value, args)
        assert back.lookup_by_value("Age", 32) == {mary, bob}
        live.disable_index("Age")
        assert list(engine.range_scan(start, end)) == []
        assert not decode_store(engine).is_indexed("Age")

    def test_legacy_index_entries_are_ignored(self):
        # A store written with the retired per-entry index keyspace
        # still opens; its entries are not read.
        engine, live = self.make_live()
        live.declare_class("Person")
        live.enable_index("Age")
        mary = live.create_object(Atom("mary"), ["Person"])
        live.set_attr(mary, "Age", 31)
        engine.put(pack_key(("i", "e", Atom("Age"), Value(99), mary)), b"")
        back = decode_store(engine)
        assert back.lookup_by_value("Age", 31) == {mary}
        assert back.lookup_by_value("Age", 99) == frozenset()

    def test_batch_groups_one_commit(self):
        engine, live = self.make_live()
        journal = live.journal
        with journal.batch():
            live.declare_class("Person")
            live.create_object(Atom("mary"), ["Person"])
        assert engine.batches_applied == 1

    def test_no_journal_means_no_overhead_hooks(self):
        store = ObjectStore()
        assert store.journal is None
        store.declare_class("Person")
        store.create_object(Atom("mary"), ["Person"])
        # Nothing blows up, nothing is recorded anywhere.
        assert store.is_instance(Atom("mary"), "Person")
