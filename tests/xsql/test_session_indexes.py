"""The public index API on Session, and index-maintenance regressions."""

import pytest

from repro.errors import QueryError
from repro.oid import Atom, Value
from repro.storage import decode_store
from tests.conftest import store_image


class TestSessionIndexApi:
    def test_enable_and_list(self, paper_session):
        assert paper_session.indexes() == []
        paper_session.enable_index("Residence")
        paper_session.enable_index("Name")
        assert paper_session.indexes() == ["Name", "Residence"]
        paper_session.disable_index("Name")
        assert paper_session.indexes() == ["Residence"]

    def test_index_mode_default_and_validation(self, paper_session):
        assert paper_session.index_mode == "auto"
        paper_session.index_mode = "off"
        assert paper_session.index_mode == "off"
        with pytest.raises(QueryError):
            paper_session.index_mode = "sometimes"

    def test_index_mode_change_drops_cached_plans(self, paper_session):
        text = "SELECT X FROM Person X WHERE X.Name['mary']"
        paper_session.query(text, plan="cost")
        assert len(paper_session.pipeline) == 1
        paper_session.index_mode = "manual"
        assert len(paper_session.pipeline) == 0

    def test_store_indexes_attribute_is_gone(self, paper_session):
        # The deprecated read-only ``store.indexes`` property was removed;
        # ``session.indexes()`` is the supported surface.
        with pytest.raises(AttributeError):
            paper_session.store.indexes  # noqa: B018


class TestIndexMaintenanceUnderUpdates:
    def test_execute_update_maintains_index(self, paper_session):
        paper_session.enable_index("Salary")
        paper_session.execute(
            "UPDATE CLASS Employee SET ben.Salary = 95000"
        )
        owners = paper_session.store.lookup_by_value(
            "Salary", Value(95000)
        )
        assert owners == frozenset({Atom("ben")})

    def test_update_moves_old_index_entry(self, paper_session):
        paper_session.enable_index("Salary")
        store = paper_session.store
        old = store.invoke_scalar(Atom("ben"), "Salary")
        paper_session.execute(
            "UPDATE CLASS Employee SET ben.Salary = 95000"
        )
        assert Atom("ben") not in (
            store.lookup_by_value("Salary", old) or frozenset()
        )


class TestIndexesAcrossRestore:
    def test_restore_back_fills_session_indexes(self, paper_session):
        # Image *before* the index exists: the decoded store carries no
        # index, so the session must re-enable and back-fill.
        image = store_image(paper_session.store)
        paper_session.enable_index("Residence")
        paper_session.replace_store(decode_store(image))
        assert paper_session.indexes() == ["Residence"]
        store = paper_session.store
        address = store.invoke_scalar(Atom("mary123"), "Residence")
        owners = store.lookup_by_value("Residence", address)
        assert owners is not None and Atom("mary123") in owners

    def test_snapshot_round_trips_indexes(self, paper_session):
        paper_session.enable_index("Residence")
        image = store_image(paper_session.store)
        paper_session.disable_index("Residence")
        paper_session.replace_store(decode_store(image))
        assert "Residence" in paper_session.indexes()

    def test_restored_index_tracks_new_writes(self, paper_session):
        image = store_image(paper_session.store)
        paper_session.enable_index("Salary")
        paper_session.replace_store(decode_store(image))
        paper_session.execute(
            "UPDATE CLASS Employee SET ben.Salary = 123"
        )
        assert paper_session.store.lookup_by_value(
            "Salary", Value(123)
        ) == frozenset({Atom("ben")})


class TestIndexesUnderDdl:
    def test_computed_method_makes_reverse_lookup_unsound(
        self, paper_session
    ):
        from repro.datamodel import PythonMethod

        store = paper_session.store
        store.enable_index("Salary")
        assert store.index_is_complete_for("Salary")
        # Installing a computed implementation means objects may carry
        # values with no stored cell: the index can no longer answer
        # reverse lookups exactly.
        store.define_method(
            "Employee",
            PythonMethod(name=Atom("Salary"), fn=lambda s, o: Value(0)),
        )
        assert not store.index_is_complete_for("Salary")
        assert store.lookup_by_value("Salary", Value(1)) is None

    def test_ddl_invalidates_cached_cost_plans(self, paper_session):
        text = "SELECT X FROM Person X WHERE X.Name['mary']"
        compiled = paper_session.prepare(text, plan="cost")
        assert not compiled.is_stale
        paper_session.execute(
            "CREATE CLASS Robot AS SUBCLASS OF Person"
        )
        assert compiled.is_stale
        compiled.run()
        assert not compiled.is_stale
