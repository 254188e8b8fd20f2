"""Quote-driven tests for the §2 data-model claims.

Each test pins one sentence of the paper's data-model review to observable
behaviour of the implementation.
"""

import pytest

from repro import Session
from repro.datamodel import ObjectStore
from repro.oid import Atom, FuncOid, Value
from tests.conftest import names


class TestObjectsAndIdentity:
    def test_literals_carry_their_usual_properties(self):
        # "'20' [is] a logical id of the abstract object with the usual
        # properties of the number 20."
        store = ObjectStore()
        assert store.is_instance(Value(20), "Numeral")
        from repro.xsql.comparisons import element_compare

        assert element_compare("<", Value(20), Value(21))

    def test_multiple_logical_oids_may_denote_one_object(self):
        # "_mary65 and secretary(dept77) may refer to the same object" —
        # aliasing is conceptual; the store does not force uniqueness of
        # ids, so both ids can coexist and be given the same description.
        store = ObjectStore()
        store.declare_class("P")
        direct = store.create_object(Atom("mary65"), ["P"])
        via_fn = store.create_object(
            FuncOid("secretary", (Atom("dept77"),)), ["P"]
        )
        store.set_attr(direct, "Name", "Mary")
        store.set_attr(via_fn, "Name", "Mary")
        assert store.invoke(direct, "Name") == store.invoke(via_fn, "Name")

    def test_id_functions_supply_fresh_ids(self):
        # "use explicit id-functions ... to get our hands on a sufficient
        # supply of such ids."
        a = FuncOid("f", (Atom("x"),))
        b = FuncOid("f", (Atom("y"),))
        c = FuncOid("g", (Atom("x"),))
        assert len({a, b, c}) == 3


class TestAttributes:
    def test_undefined_is_not_inapplicable(self, nobel_session):
        # "undefinedness does not imply inapplicability."
        store = nobel_session.store
        curie = store.create_object(Atom("curie2"), ["Scientist"])
        # undefined: no value...
        assert store.invoke(curie, "WonNobelPrize") == frozenset()
        # ...yet applicable: a Scientist signature covers it.
        result = nobel_session.query(
            "SELECT M WHERE M applicableTo curie2"
        )
        assert "WonNobelPrize" in names(result)

    def test_set_objects_are_single_attribute_tuple_objects(self):
        # "Set-objects are described in our model as tuple-objects having
        # a single, set-valued attribute."
        store = ObjectStore()
        store.declare_class("Bag")
        bag = store.create_object(Atom("bag1"), ["Bag"])
        store.set_attr_set(bag, "Members", [Value(1), Value(2)])
        cells = dict(store.records())[bag]
        assert [method.name for method, _args in cells] == ["Members"]

    def test_nested_sets_via_intermediate_objects(self):
        # "modeling sets of arbitrary nesting depth becomes quite easy."
        store = ObjectStore()
        store.declare_class("Bag")
        inner = store.create_object(Atom("inner"), ["Bag"])
        store.set_attr_set(inner, "Members", [Value(1)])
        outer = store.create_object(Atom("outer"), ["Bag"])
        store.set_attr_set(outer, "Members", [inner])
        session = Session(store)
        flattened = session.query("SELECT outer.Members.Members")
        assert flattened.scalars() == [1]


class TestClasses:
    def test_membership_does_not_create_subclassing(self):
        # "if at some point the only students registered in the database
        # are teaching assistants, this does not make the class Student a
        # subclass of the class TA."
        store = ObjectStore()
        store.declare_class("Student")
        store.declare_class("TA", ["Student"])
        store.create_object(Atom("s1"), ["TA"])  # the only student is a TA
        assert not store.hierarchy.is_subclass(Atom("Student"), Atom("TA"))
        assert store.extent("Student") == store.extent("TA")

    def test_classes_are_queryable_objects(self):
        # "classes are also objects. They can have attributes just like
        # regular objects and can be queried as regular objects."
        store = ObjectStore()
        store.declare_class("Engines")
        store.set_attr(Atom("Engines"), "Curator", "smith")
        session = Session(store)
        result = session.query("SELECT Engines.Curator")
        assert result.scalars() == ["smith"]

    def test_no_metaclasses_needed(self):
        # "Representing classes as objects ... eliminates the need for
        # metaclasses" — class variables range over classes directly.
        session = Session()
        session.store.declare_class("A")
        session.store.declare_class("B", ["A"])
        result = session.query("SELECT #X WHERE B subclassOf #X")
        assert names(result) == ["A", "Object"]


class TestMethods:
    def test_attributes_are_zero_ary_methods(self):
        # "we do not really distinguish between methods and attributes
        # and simply view the latter as 0-ary methods."
        store = ObjectStore()
        store.declare_class("P")
        obj = store.create_object(Atom("o"), ["P"])
        store.set_attr(obj, "Name", "N")  # stored under (Name, ())
        assert store.invoke(obj, "Name", []) == frozenset({Value("N")})

    def test_method_names_returned_as_answers(self, shared_paper_session):
        # "method names are logical oids and therefore can be returned as
        # query answers, which is useful for schema exploration."
        result = shared_paper_session.query(
            "SELECT M WHERE uniSQL.M[kim]"
        )
        assert names(result) == ["President"]

    def test_methods_partial_functions(self, university_session):
        # "Being a partial function, a method ... may have no value for
        # some arguments."
        store = university_session.store
        assert store.invoke(
            Atom("hal"), "earns", [Atom("proj1")]
        ) != frozenset()
        assert store.invoke(
            Atom("hal"), "earns", [Atom("cse305")]
        ) == frozenset()


class TestRelationsFirstClass:
    def test_symmetric_relationship_as_relation(self):
        # "Relations are more convenient ... when a symmetric binary
        # relationship between [objects] is called for."
        session = Session()
        session.store.declare_class("P")
        for name in ("a", "b"):
            session.store.create_object(Atom(name), ["P"])
        session.execute("CREATE RELATION Sibling (x, y)")
        session.execute("INSERT INTO Sibling VALUES (a, b), (b, a)")
        forward = session.query("SELECT Y WHERE Sibling(a, Y)")
        backward = session.query("SELECT Y WHERE Sibling(Y, a)")
        assert names(forward) == names(backward) == ["b"]
