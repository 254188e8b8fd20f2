"""Tests for the ObjectStore facade (paper §2)."""

import pytest

from repro.datamodel import ObjectStore, PythonMethod
from repro.datamodel.methods import UNDEFINED
from repro.errors import (
    ArityError,
    SchemaError,
    SignatureError,
    UnknownClassError,
)
from repro.oid import NIL, Atom, FuncOid, Value


@pytest.fixture
def store() -> ObjectStore:
    s = ObjectStore()
    s.declare_class("Person")
    s.declare_class("Employee", ["Person"])
    s.declare_signature("Person", "Name", "String")
    s.declare_signature("Person", "Age", "Numeral")
    s.declare_signature("Employee", "FamMembers", "Person", set_valued=True)
    return s


class TestInstances:
    def test_create_object_with_unknown_class_moves_nothing(self, store):
        from repro.storage import MemoryEngine, StoreJournal

        store.declare_class("P")
        journal = StoreJournal(MemoryEngine(), store)
        store.set_journal(journal)
        with journal.batch():
            ticket, known = store.ticket, store.known_objects()
            extent = store.extent("P")
            pending = list(journal._pending.ops)
            with pytest.raises(UnknownClassError):
                store.create_object(Atom("x"), ["P", "Nope"])
            assert store.ticket == ticket
            assert store.known_objects() == known
            assert store.extent("P") == extent
            assert journal._pending.ops == pending

    def test_membership_closure(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        assert store.is_instance(pam, "Employee")
        assert store.is_instance(pam, "Person")
        assert store.is_instance(pam, "Object")

    def test_literals_belong_to_builtin_classes(self, store):
        assert store.is_instance(Value(20), "Numeral")
        assert store.is_instance(Value("hi"), "String")
        assert store.is_instance(Value(True), "Boolean")
        assert store.is_instance(NIL, "Nil")
        assert store.is_instance(Value(20), "Object")

    def test_extent_includes_subclasses(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        tom = store.create_object(Atom("tom"), ["Person"])
        assert store.extent("Person") == frozenset({pam, tom})
        assert store.extent("Person", direct=True) == frozenset({tom})

    def test_extent_of_unknown_class(self, store):
        with pytest.raises(UnknownClassError):
            store.extent("Nope")

    def test_literal_extent_is_active_domain(self, store):
        pam = store.create_object(Atom("pam"), ["Person"])
        store.set_attr(pam, "Age", 35)
        assert Value(35) in store.extent("Numeral")

    def test_remove_instance(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        store.remove_instance(pam, "Employee")
        assert not store.is_instance(pam, "Employee")

    def test_purge_object(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        store.set_attr(pam, "Name", "Pam")
        store.purge_object(pam)
        assert pam not in store.known_objects()
        assert pam not in store.extent("Employee")

    def test_class_atom_cannot_be_instance(self, store):
        with pytest.raises(SchemaError):
            store.create_object(Atom("Person"), ["Employee"])


class TestInvocation:
    def test_undefined_returns_empty(self, store):
        pam = store.create_object(Atom("pam"), ["Person"])
        assert store.invoke(pam, "Name") == frozenset()
        assert store.invoke_scalar(pam, "Name") is None

    def test_scalar_roundtrip(self, store):
        pam = store.create_object(Atom("pam"), ["Person"])
        store.set_attr(pam, "Name", "Pam")
        assert store.invoke_scalar(pam, "Name") == Value("Pam")

    def test_kinded_flags(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        store.set_attr(pam, "Name", "Pam")
        store.add_to_set(pam, "FamMembers", Atom("bob"))
        _, scalar_kind = store.invoke_kinded(pam, "Name")
        _, set_kind = store.invoke_kinded(pam, "FamMembers")
        assert not scalar_kind and set_kind

    def test_arrow_check_against_signature(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        with pytest.raises(SignatureError):
            store.set_attr(pam, "FamMembers", Atom("bob"))  # declared set
        with pytest.raises(SignatureError):
            store.add_to_set(pam, "Name", "Pam")  # declared scalar

    def test_python_method_arity_enforced(self, store):
        store.define_method(
            "Person",
            PythonMethod(name=Atom("Plus"), fn=lambda s, o, x: x, arity=1),
        )
        pam = store.create_object(Atom("pam"), ["Person"])
        with pytest.raises(ArityError):
            store.invoke(pam, "Plus")

    def test_python_method_undefined_result(self, store):
        store.define_method(
            "Person",
            PythonMethod(name=Atom("Maybe"), fn=lambda s, o: UNDEFINED),
        )
        pam = store.create_object(Atom("pam"), ["Person"])
        assert store.invoke(pam, "Maybe") == frozenset()

    def test_funcoid_objects_storeable(self, store):
        view_obj = FuncOid("V", (Atom("pam"),))
        store.create_object(view_obj, ["Person"])
        store.set_attr(view_obj, "Name", "viewed")
        assert store.invoke_scalar(view_obj, "Name") == Value("viewed")


class TestUniverses:
    def test_method_universe_contains_declared(self, store):
        assert Atom("Name") in store.method_universe()
        assert Atom("FamMembers") in store.method_universe()

    def test_class_universe(self, store):
        assert Atom("Person") in store.class_universe()
        assert Atom("Object") in store.class_universe()

    def test_individuals_exclude_classes(self, store):
        pam = store.create_object(Atom("pam"), ["Person"])
        individuals = store.individual_universe()
        assert pam in individuals
        assert Atom("Person") not in individuals

    def test_methods_defined_on(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        store.set_attr(pam, "Name", "Pam")
        store.set_attr(Atom("Person"), "Kind", "human")
        defined = store.methods_defined_on(pam)
        assert Atom("Name") in defined
        assert Atom("Kind") in defined  # inherited class default


class TestSignaturesApi:
    def test_declared_vs_inherited(self, store):
        own = store.declared_signatures("Employee")
        assert {s.method.name for s in own} == {"FamMembers"}
        inherited = store.signatures_of("Employee")
        assert {s.method.name for s in inherited} == {
            "FamMembers",
            "Name",
            "Age",
        }

    def test_all_type_exprs(self, store):
        exprs = store.all_type_exprs("Name")
        assert len(exprs) == 1
        assert exprs[0].scope == Atom("Person")

    def test_signature_unknown_class_rejected(self, store):
        with pytest.raises(UnknownClassError):
            store.declare_signature("Nope", "X", "String")
        with pytest.raises(UnknownClassError):
            store.declare_signature("Person", "X", "NoResult")

    def test_method_name_cannot_be_class(self, store):
        with pytest.raises(SchemaError):
            store.declare_signature("Person", "Employee", "String")


class TestRelations:
    def test_declare_insert_query(self, store):
        store.declare_relation("Likes", ["who", "what"])
        store.insert_tuple("Likes", [Atom("pam"), Value("jazz")])
        relation = store.relation("Likes")
        assert (Atom("pam"), Value("jazz")) in relation
        assert relation.column("what") == frozenset({Value("jazz")})

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownClassError):
            store.relation("Nope")

    def test_describe_renders(self, store):
        pam = store.create_object(Atom("pam"), ["Employee"])
        store.set_attr(pam, "Name", "Pam")
        store.add_to_set(pam, "FamMembers", Atom("bob"))
        text = store.describe(pam)
        assert "Name -> 'Pam'" in text
        assert "FamMembers ->> {bob}" in text
