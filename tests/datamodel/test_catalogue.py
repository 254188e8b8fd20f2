"""Tests for the system catalogue and object subdomains (paper §2)."""

import pytest

from repro.datamodel import ObjectStore
from repro.datamodel.catalogue import BOOLEAN, NUMERAL, STRING
from repro.errors import SchemaError
from repro.oid import NIL, Atom, Value
from repro.storage import decode_store
from repro.xsql.session import Session
from tests.conftest import store_image


class TestSorts:
    def test_class_objects_disjoint_from_individuals(self):
        store = ObjectStore()
        store.declare_class("Person")
        assert store.catalogue.is_class(Atom("Person"))
        with pytest.raises(SchemaError):
            store.catalogue.check_individual(Atom("Person"))

    def test_method_atoms_registered(self):
        store = ObjectStore()
        store.declare_class("Person")
        store.declare_signature("Person", "Name", "String")
        assert store.catalogue.is_method(Atom("Name"))
        assert not store.catalogue.is_method(Atom("Person"))

    def test_method_name_colliding_with_class_rejected(self):
        store = ObjectStore()
        store.declare_class("Person")
        with pytest.raises(SchemaError):
            store.declare_signature("Person", "Person", "String")


class TestStrictNamespace:
    def test_relaxed_allows_shared_names(self):
        # "the user has an added flexibility in choosing names" (§2).
        store = ObjectStore(strict_method_namespace=False)
        store.declare_class("Person")
        store.declare_signature("Person", "Name", "String")
        store.create_object(Atom("Name"), ["Person"])  # no error

    def test_strict_rejects_method_as_individual(self):
        # "we gain a degree of syntactic safety" (§2).
        store = ObjectStore(strict_method_namespace=True)
        store.declare_class("Person")
        store.declare_signature("Person", "Name", "String")
        with pytest.raises(SchemaError):
            store.create_object(Atom("Name"), ["Person"])


class TestLiteralClassification:
    def test_numbers(self):
        store = ObjectStore()
        assert store.catalogue.literal_class(Value(1)) == NUMERAL
        assert store.catalogue.literal_class(Value(1.5)) == NUMERAL

    def test_strings_and_booleans(self):
        store = ObjectStore()
        assert store.catalogue.literal_class(Value("x")) == STRING
        assert store.catalogue.literal_class(Value(False)) == BOOLEAN

    def test_nil(self):
        store = ObjectStore()
        assert store.catalogue.literal_class(NIL) == Atom("Nil")

    def test_plain_atoms_have_no_literal_class(self):
        store = ObjectStore()
        assert store.catalogue.literal_class(Atom("pam")) is None

    def test_implicit_classes_include_object(self):
        store = ObjectStore()
        implied = store.catalogue.implicit_classes(Value(3))
        assert Atom("Object") in implied and NUMERAL in implied
        assert store.catalogue.implicit_classes(Atom("pam")) == frozenset(
            {Atom("Object")}
        )

    def test_builtin_classes_under_object(self):
        store = ObjectStore()
        for builtin in (NUMERAL, STRING, BOOLEAN):
            assert store.hierarchy.is_subclass(builtin, Atom("Object"))


class TestBooleanIsNotNumeral:
    """``true`` and ``1`` are distinct literal objects: each lands in its
    own extent, a selector of one kind never matches the other, and the
    codec keeps both."""

    @pytest.fixture
    def session(self):
        session = Session()
        session.execute(
            "CREATE CLASS Thing SIGNATURE Qty = Numeral, Flag = Boolean"
        )
        for name in ("a", "b"):
            session.store.create_object(Atom(name), ["Thing"])
        # The boolean is written first: it must not stand for the 1.
        session.store.set_attr(Atom("a"), "Flag", True)
        session.store.set_attr(Atom("b"), "Qty", 1)
        return session

    def test_each_extent_holds_its_own_literal(self, session):
        assert session.query("SELECT X FROM Numeral X").rows() == {
            (Value(1),)
        }
        assert session.query("SELECT X FROM Boolean X").rows() == {
            (Value(True),)
        }

    def test_cross_typed_selectors_match_nothing(self, session):
        for text in (
            "SELECT X FROM Thing X WHERE X.Flag[1]",
            "SELECT X FROM Thing X WHERE X.Qty[true]",
        ):
            assert not session.query(text).rows(), text
        assert session.query(
            "SELECT X FROM Thing X WHERE X.Flag[true]"
        ).rows() == {(Atom("a"),)}
        assert session.query(
            "SELECT X FROM Thing X WHERE X.Qty[1]"
        ).rows() == {(Atom("b"),)}

    def test_codec_roundtrip_keeps_both(self, session):
        restored = decode_store(store_image(session.store))
        assert restored.extent("Numeral") == frozenset({Value(1)})
        assert restored.extent("Boolean") == frozenset({Value(True)})
        assert restored.invoke(Atom("a"), "Flag") == frozenset({Value(True)})
        assert restored.invoke(Atom("b"), "Qty") == frozenset({Value(1)})
