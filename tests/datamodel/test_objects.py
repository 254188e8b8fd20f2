"""Tests for tuple-object records and value cells (paper §2).

Records are written only through the store (``ObjectStore._put_cell``),
so every cell rule is exercised through the public store API and read
back from the object's record: the read-only cell mapping
``ObjectStore.records()`` yields for it.
"""

from typing import Mapping

import pytest

from repro.datamodel.objects import Cell, CellKey, ScalarCell, SetCell
from repro.datamodel.store import ObjectStore
from repro.errors import ArityError
from repro.oid import Atom, Value

MARY = Atom("mary123")
AGE = (Atom("Age"), ())


@pytest.fixture
def store() -> ObjectStore:
    return ObjectStore()


def record_of(store: ObjectStore) -> Mapping[CellKey, Cell]:
    return dict(store.records())[MARY]


class TestScalarCells:
    def test_set_and_get(self, store):
        store.set_attr(MARY, "Age", 35)
        cell = record_of(store).get(AGE)
        assert isinstance(cell, ScalarCell)
        assert cell.as_set() == frozenset({Value(35)})
        assert not cell.set_valued

    def test_overwrite(self, store):
        store.set_attr(MARY, "Age", 35)
        store.set_attr(MARY, "Age", 36)
        assert record_of(store).get(AGE).as_set() == frozenset(
            {Value(36)}
        )

    def test_scalar_cannot_become_set_member_target(self, store):
        store.set_attr(MARY, "Age", 35)
        with pytest.raises(ArityError):
            store.add_to_set(MARY, "Age", 36)


class TestSetCells:
    def test_add_members(self, store):
        store.add_to_set(MARY, "FamMembers", Atom("bob"))
        store.add_to_set(MARY, "FamMembers", Atom("anna"))
        cell = record_of(store).get((Atom("FamMembers"), ()))
        assert isinstance(cell, SetCell)
        assert cell.as_set() == frozenset({Atom("bob"), Atom("anna")})

    def test_remove_member(self, store):
        store.set_attr_set(MARY, "FamMembers", [Atom("bob")])
        store.set_attr_set(MARY, "FamMembers", [])
        assert record_of(store).get((Atom("FamMembers"), ())).as_set() == (
            frozenset()
        )

    def test_remove_from_scalar_rejected(self, store):
        store.set_attr(MARY, "Age", 35)
        with pytest.raises(ArityError):
            store.set_attr_set(MARY, "Age", [])

    def test_set_cannot_be_assigned_scalar(self, store):
        store.add_to_set(MARY, "FamMembers", Atom("bob"))
        with pytest.raises(ArityError):
            store.set_attr(MARY, "FamMembers", Atom("bob"))


class TestMethodArguments:
    def test_cells_keyed_by_arguments(self, store):
        # earns(proj) and earns(course) are distinct cells (§2 "Methods").
        store.set_attr(MARY, "earns", Atom("pay1"), [Atom("proj")])
        store.set_attr(MARY, "earns", Atom("gradeA"), [Atom("course")])
        record = record_of(store)
        earns = Atom("earns")
        assert record[(earns, (Atom("proj"),))].as_set() == frozenset(
            {Atom("pay1")}
        )
        assert record[(earns, (Atom("course"),))].as_set() == frozenset(
            {Atom("gradeA")}
        )
        assert record.get((earns, ())) is None


class TestUndefinedness:
    def test_absent_is_undefined(self, store):
        # Undefinedness is "analogous to the null value" — simply no cell.
        store.create_object(MARY)
        assert record_of(store).get(AGE) is None
        assert store.explicit_cell(MARY, "Age") is None

    def test_unset_restores_undefined(self, store):
        store.set_attr(MARY, "Age", 35)
        store.unset_attr(MARY, "Age")
        assert record_of(store).get(AGE) is None

    def test_unset_missing_is_noop(self, store):
        ticket = store.ticket
        store.unset_attr(MARY, "Age")
        assert store.explicit_cell(MARY, "Age") is None
        assert list(store.records()) == []
        assert store.ticket == ticket + 1


class TestIntrospection:
    def test_defined_methods_deduplicated(self, store):
        store.set_attr(MARY, "earns", Atom("p"), [Atom("a")])
        store.set_attr(MARY, "earns", Atom("q"), [Atom("b")])
        store.set_attr(MARY, "Age", 1)
        assert len(record_of(store)) == 3
        assert sorted(m.name for m in store.methods_defined_on(MARY)) == [
            "Age",
            "earns",
        ]

    def test_entries_iteration(self, store):
        store.set_attr(MARY, "Age", 1)
        entries = list(record_of(store).items())
        assert len(entries) == 1
        (method, args), cell = entries[0]
        assert method == Atom("Age") and args == ()

    def test_records_are_read_only(self, store):
        store.set_attr(MARY, "Age", 1)
        (owner, cells), = store.records()
        assert owner == MARY
        with pytest.raises(TypeError):
            cells[AGE] = ScalarCell(Value(2))
        with pytest.raises(TypeError):
            del cells[AGE]
        assert store.explicit_cell(MARY, "Age") == ScalarCell(Value(1))

    def test_records_yield_creation_order(self, store):
        for name in ("zed", "amy", "mid"):
            store.set_attr(Atom(name), "Age", 1)
        store.create_object(Atom("bob"))
        assert [owner.name for owner, _cells in store.records()] == [
            "zed", "amy", "mid", "bob",
        ]
