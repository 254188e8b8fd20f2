"""Tests for in-memory rollback through a codec image of the store."""

from repro.oid import Atom, Value
from repro.storage import decode_store
from repro.storage.smoke import canonical
from tests.conftest import names, store_image


class TestSnapshots:
    def test_rollback_after_update(self, paper_session):
        checkpoint = store_image(paper_session.store)
        paper_session.execute(
            "UPDATE CLASS Division SET d_eng.Function = 'changed'"
        )
        assert paper_session.store.invoke_scalar(
            Atom("d_eng"), "Function"
        ) == Value("changed")
        paper_session.replace_store(decode_store(checkpoint))
        assert paper_session.store.invoke_scalar(
            Atom("d_eng"), "Function"
        ) == Value("R&D")

    def test_rollback_removes_created_objects(self, paper_session):
        checkpoint = store_image(paper_session.store)
        result = paper_session.execute(
            "SELECT N = Y.Name FROM Company Y OID FUNCTION OF Y"
        )
        created = result.created[0]
        assert created in paper_session.store.known_objects()
        paper_session.replace_store(decode_store(checkpoint))
        assert created not in paper_session.store.known_objects()

    def test_queries_work_after_restore(self, paper_session):
        checkpoint = store_image(paper_session.store)
        paper_session.replace_store(decode_store(checkpoint))
        result = paper_session.query(
            "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"
        )
        assert names(result) == ["john13", "kim"]

    def test_snapshot_is_isolated_from_later_writes(self, paper_session):
        checkpoint = store_image(paper_session.store)
        paper_session.execute(
            "UPDATE CLASS Employee SET ben.Salary = 1"
        )
        # mutating after the image is taken must not alter it.
        paper_session.replace_store(decode_store(checkpoint))
        assert paper_session.store.invoke_scalar(
            Atom("ben"), "Salary"
        ) == Value(30000)


COMP_SALARIES = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, DivName = String, Salary = Numeral
SELECT CompName = X.Name, DivName = Y.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions[Y].Employees[W]
"""


class TestSnapshotRoundTripWithViewsAndCreation:
    """§4.1/§4.2 state — materialized views and OID-function objects —
    must survive an encode/decode round-trip intact."""

    def test_view_state_survives_roundtrip(self, paper_session):
        paper_session.execute(COMP_SALARIES)
        extent_before = paper_session.store.extent("CompSalaries")
        rows_before = paper_session.query(
            "SELECT V.Salary FROM CompSalaries V WHERE V.CompName['Acme']"
        ).rows()
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        assert paper_session.store.extent("CompSalaries") == extent_before
        hierarchy = paper_session.store.hierarchy
        assert hierarchy.is_subclass(Atom("CompSalaries"), Atom("Object"))
        sigs = paper_session.store.signatures_of("CompSalaries", "Salary")
        assert sigs and sigs[0].result == Atom("Numeral")
        rows_after = paper_session.query(
            "SELECT V.Salary FROM CompSalaries V WHERE V.CompName['Acme']"
        ).rows()
        assert rows_after == rows_before

    def test_created_objects_survive_roundtrip(self, paper_session):
        result = paper_session.execute(
            "SELECT N = Y.Name FROM Company Y OID FUNCTION OF Y"
        )
        created = set(result.created)
        assert created
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        assert created <= paper_session.store.known_objects()
        for oid in created:
            assert paper_session.store.invoke_scalar(oid, "N") is not None

    def test_snapshot_is_stable_under_roundtrip(self, paper_session):
        paper_session.execute(COMP_SALARIES)
        paper_session.execute(
            "SELECT N = Y.Name FROM Company Y OID FUNCTION OF Y"
        )
        first = canonical(paper_session.store)
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        assert canonical(paper_session.store) == first

    def test_restore_older_snapshot_drops_view(self, paper_session):
        checkpoint = store_image(paper_session.store)
        paper_session.execute(COMP_SALARIES)
        assert paper_session.store.extent("CompSalaries")
        paper_session.replace_store(decode_store(checkpoint))
        assert Atom("CompSalaries") not in paper_session.store.hierarchy.classes()


CREATE_COMPANY_OBJECTS = (
    "SELECT N = Y.Name FROM Company Y OID FUNCTION OF Y"
)


class TestRestoreRebuildsIdFunctionRegistry:
    """``replace_store`` must reseed the id-function registry from the
    restored object graph, not carry the old table forward (§4.1: one
    functor per creating query, or two queries share "the same" oids)."""

    def test_restore_into_fresh_session_knows_restored_functors(
        self, paper_session
    ):
        from repro.xsql.session import Session

        paper_session.execute(CREATE_COMPANY_OBJECTS)  # allocates qf1
        image = store_image(paper_session.store)
        fresh = Session()
        fresh.replace_store(decode_store(image))
        assert fresh.registry.known("qf1")
        # The ad-hoc counter resumes past the restored functor: the next
        # creating query must NOT reuse qf1.
        assert fresh.registry.fresh_functor() == "qf2"

    def test_creation_after_restore_does_not_collide(self, paper_session):
        first = paper_session.execute(CREATE_COMPANY_OBJECTS)
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        second = paper_session.execute(CREATE_COMPANY_OBJECTS)
        functors_first = {oid.functor for oid in first.created}
        functors_second = {oid.functor for oid in second.created}
        assert functors_first.isdisjoint(functors_second)

    def test_restore_drops_registry_entries_for_dropped_objects(
        self, paper_session
    ):
        checkpoint = store_image(paper_session.store)
        paper_session.execute(CREATE_COMPANY_OBJECTS)
        assert paper_session.registry.known("qf1")
        paper_session.replace_store(decode_store(checkpoint))
        # The image predates the creation: qf1's objects are gone, so
        # the registry must not claim the functor is still defined.
        assert not paper_session.registry.known("qf1")

    def test_view_functor_instances_survive_restore(self, paper_session):
        paper_session.execute(COMP_SALARIES)
        instances_before = paper_session.registry.instances("CompSalaries")
        assert instances_before
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        assert (
            paper_session.registry.instances("CompSalaries")
            == instances_before
        )
