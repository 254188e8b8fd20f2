"""Incremental view maintenance: delta tiers, read sets, lazy sync.

Every base write lands in one of four tiers — irrelevant (view stays
fresh), select-only (targeted per-group re-derivation), structural
(full refresh), or DDL (rebuild with fresh read sets) — and the
pipeline syncs stale views lazily before the next statement.
"""

import pytest

from repro.oid import Atom, FuncOid, Value
from repro.views.maintenance import derive_read_sets
from repro.xsql.parser import parse_query

COMP_SALARIES = """
CREATE VIEW CompSalaries AS SUBCLASS OF Object
SIGNATURE CompName = String, Salary = Numeral
SELECT CompName = X.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions[Y].Employees[W]
"""

THROUGH_VIEW = "SELECT V.Salary FROM CompSalaries V WHERE V.CompName['Acme']"


def state_of(session, name="CompSalaries"):
    return session.views.maintenance_status()[name]


@pytest.fixture
def view_session(paper_session):
    paper_session.execute(COMP_SALARIES)
    return paper_session


class TestDeltaTiers:
    def test_view_starts_fresh(self, view_session):
        status = state_of(view_session)
        assert status["state"] == "fresh"
        assert status["objects"] == 6
        assert status["pending_groups"] == 0
        assert status["last_kind"] == "materialize"

    def test_irrelevant_write_stays_fresh(self, view_session):
        # Age is in no read set of the view.
        view_session.store.set_attr(Atom("pat"), "Age", 53)
        assert state_of(view_session)["state"] == "fresh"
        assert not view_session.views.pending()
        assert view_session.sync_views() == []

    def test_select_only_write_outside_support_stays_fresh(self, view_session):
        # ret1 is an Employee but belongs to no division: its Salary
        # cannot feed the view, so the write is provably irrelevant.
        view_session.store.set_attr(Atom("ret1"), "Salary", 1)
        assert state_of(view_session)["state"] == "fresh"

    def test_select_only_write_goes_delta_pending_then_targeted(
        self, view_session
    ):
        view_session.store.set_attr(Atom("acmeEmp"), "Salary", 21000)
        status = state_of(view_session)
        assert status["state"] == "delta-pending"
        assert status["pending_groups"] == 1

        events = view_session.sync_views()
        assert len(events) == 1
        event = events[0]
        assert event["view"] == "CompSalaries"
        assert event["kind"] == "targeted"
        assert event["groups"] == 1
        assert event["seconds"] >= 0.0

        status = state_of(view_session)
        assert status["state"] == "fresh"
        assert status["last_kind"] == "targeted"
        assert status["last_groups"] == 1
        assert sorted(
            view_session.query(THROUGH_VIEW).scalars()
        ) == [21000, 250000, 300000]

    def test_where_method_write_forces_refresh(self, view_session):
        # Employees is a WHERE method: group membership itself changed,
        # so targeted re-derivation of existing groups is not enough.
        store = view_session.store
        d_mkt = Atom("d_mkt")
        members = sorted(store.invoke(d_mkt, "Employees"), key=str)
        store.set_attr_set(d_mkt, "Employees", members + [Atom("ret1")])
        assert state_of(view_session)["state"] == "delta-pending"

        events = view_session.sync_views()
        assert [e["kind"] for e in events] == ["refresh"]
        assert state_of(view_session)["last_kind"] == "refresh"
        # The new (acme, ret1) pair materialized with ret1's salary.
        assert sorted(view_session.query(THROUGH_VIEW).scalars()) == [
            0,
            20000,
            250000,
            300000,
        ]

    def test_membership_in_read_class_forces_refresh(self, view_session):
        # A new Company lands in the FROM class's extent.
        store = view_session.store
        newco = store.create_object(Atom("newco"), ["Company"])
        assert state_of(view_session)["state"] == "delta-pending"
        store.set_attr(newco, "Name", "NewCo")
        events = view_session.sync_views()
        assert [e["kind"] for e in events] == ["refresh"]
        # No divisions yet: the view's extent is unchanged.
        assert state_of(view_session)["objects"] == 6

    def test_purge_of_supporting_object_forces_refresh(self, view_session):
        view_session.store.purge_object(Atom("acmeEmp"))
        assert state_of(view_session)["state"] == "delta-pending"
        events = view_session.sync_views()
        assert [e["kind"] for e in events] == ["refresh"]
        assert sorted(view_session.query(THROUGH_VIEW).scalars()) == [
            250000,
            300000,
        ]

    def test_purge_reached_only_through_where_forces_refresh(
        self, paper_session
    ):
        # addr_sf is no supporting object of the view — only its WHERE
        # path reaches it — yet purging it drops the City cell the
        # condition reads.
        session = paper_session
        session.execute(
            "CREATE VIEW SFStaff AS SUBCLASS OF Object "
            "SIGNATURE StaffName = String "
            "SELECT StaffName = X.Name FROM Employee X "
            "OID FUNCTION OF X WHERE X.Residence.City['sanfrancisco']"
        )
        assert state_of(session, "SFStaff")["objects"] == 3
        session.store.purge_object(Atom("addr_sf"))
        assert state_of(session, "SFStaff")["state"] == "delta-pending"
        fresh = session.query(
            "SELECT X.Name FROM Employee X "
            "WHERE X.Residence.City['sanfrancisco']"
        ).scalars()
        assert fresh == []
        assert session.query(
            "SELECT V.StaffName FROM SFStaff V"
        ).scalars() == fresh

    def test_insert_into_unread_relation_stays_fresh(self, paper_session):
        session = paper_session
        session.execute("CREATE RELATION Partner (a, b)")
        session.execute("CREATE RELATION Other (a, b)")
        session.execute("INSERT INTO Partner VALUES (uniSQL, 'x')")
        session.execute(
            "CREATE VIEW Partners AS SUBCLASS OF Object "
            "SIGNATURE CompName = String "
            "SELECT CompName = X.Name FROM Company X "
            "OID FUNCTION OF X WHERE Partner(X, Y)"
        )
        session.store.insert_tuple("Other", [Atom("acme"), "y"])
        assert state_of(session, "Partners")["state"] == "fresh"
        session.store.insert_tuple("Partner", [Atom("acme"), "y"])
        assert state_of(session, "Partners")["state"] == "delta-pending"
        assert sorted(
            session.query("SELECT V.CompName FROM Partners V").scalars()
        ) == ["Acme", "UniSQL"]

    def test_tuple_values_grow_a_literal_class_view(self, paper_session):
        # A tuple's values join the known set, which FROM Numeral ranges
        # over, so an insert into any relation can add a view object.
        session = paper_session
        session.store.declare_relation("Other", ["who", "what"])
        session.execute(
            "CREATE VIEW Numbers AS SUBCLASS OF Object "
            "SIGNATURE N = Numeral "
            "SELECT N = X FROM Numeral X OID FUNCTION OF X"
        )
        before = state_of(session, "Numbers")["objects"]
        session.store.insert_tuple("Other", [Atom("acme"), 987654])
        assert state_of(session, "Numbers")["state"] == "delta-pending"
        fresh = sorted(session.query("SELECT X FROM Numeral X").scalars())
        assert len(fresh) == before + 1
        assert sorted(
            session.query("SELECT V.N FROM Numbers V").scalars()
        ) == fresh

    def test_ddl_forces_rebuild(self, view_session):
        view_session.store.declare_class("Startup", ["Company"])
        assert state_of(view_session)["state"] == "rebuild-pending"
        events = view_session.sync_views()
        assert [e["kind"] for e in events] == ["rebuild"]
        status = state_of(view_session)
        assert status["state"] == "fresh"
        assert status["last_kind"] == "rebuild"
        assert status["objects"] == 6

    def test_relation_redeclaration_stales_a_reading_view(
        self, paper_session
    ):
        session = paper_session
        session.execute("CREATE RELATION Partner (a, b)")
        session.execute("INSERT INTO Partner VALUES (uniSQL, 'x')")
        session.execute(
            "CREATE VIEW Partners AS SUBCLASS OF Object "
            "SIGNATURE CompName = String "
            "SELECT CompName = X.Name FROM Company X "
            "OID FUNCTION OF X WHERE Partner(X, Y)"
        )
        query = "SELECT V.CompName FROM Partners V"
        assert session.query(query).scalars() == ["UniSQL"]
        session.store.declare_relation("Partner", ["a", "b"])
        assert session.views.pending()
        assert state_of(session, "Partners")["state"] != "fresh"
        assert session.query(query).scalars() == []
        assert state_of(session, "Partners")["state"] == "fresh"

    def test_index_toggle_does_not_rebuild(self, view_session):
        # An index changes no answer and is not schema: enabling or
        # disabling one under a materialized view leaves it fresh and
        # the published schema value in place.
        store = view_session.store
        schema = store.schema
        store.enable_index("Name")
        events = view_session.sync_views()
        store.disable_index("Name")
        events += view_session.sync_views()
        assert sum(1 for e in events if e["kind"] == "rebuild") == 0
        assert state_of(view_session)["state"] == "fresh"
        assert store.schema is schema
        assert sorted(view_session.query(THROUGH_VIEW).scalars()) == [
            20000,
            250000,
            300000,
        ]

    def test_ddl_after_index_toggle_still_rebuilds(self, view_session):
        view_session.store.declare_class("Startup", ["Company"])
        view_session.store.enable_index("Name")
        assert state_of(view_session)["state"] == "rebuild-pending"
        events = view_session.sync_views()
        assert [e["kind"] for e in events] == ["rebuild"]

    def test_maintenance_writes_do_not_remark_stale(self, view_session):
        # The observer is muted while the manager re-materializes, so a
        # sync leaves every view fresh instead of looping.
        view_session.store.set_attr(Atom("pat"), "Salary", 260000)
        view_session.sync_views()
        assert not view_session.views.pending()
        assert view_session.sync_views() == []


class TestLazySync:
    def test_query_through_view_syncs_first(self, view_session):
        view_session.store.set_attr(Atom("acmeEmp"), "Salary", 22000)
        # No explicit sync: the pipeline maintains before the statement.
        assert sorted(view_session.query(THROUGH_VIEW).scalars()) == [
            22000,
            250000,
            300000,
        ]
        assert state_of(view_session)["last_kind"] == "targeted"

    def test_unrelated_query_also_syncs(self, view_session):
        view_session.store.set_attr(Atom("acmeEmp"), "Salary", 23000)
        view_session.query("SELECT X FROM Automobile X")
        assert state_of(view_session)["state"] == "fresh"

    def test_targeted_sync_preserves_view_identity(self, view_session):
        target = FuncOid("CompSalaries", (Atom("acme"), Atom("acmeEmp")))
        assert view_session.store.invoke(target, "Salary") == frozenset(
            {Value(20000)}
        )
        view_session.store.set_attr(Atom("acmeEmp"), "Salary", 24000)
        view_session.sync_views()
        assert view_session.store.invoke(target, "Salary") == frozenset(
            {Value(24000)}
        )

    def test_two_views_sync_independently(self, view_session):
        view_session.execute(
            "CREATE VIEW NameCard AS SUBCLASS OF Object "
            "SIGNATURE PName = String "
            "SELECT PName = X.Name FROM Person X OID FUNCTION OF X"
        )
        # Salary is select-only for CompSalaries and irrelevant for
        # NameCard: only the former appears in the sync events.
        view_session.store.set_attr(Atom("acmeEmp"), "Salary", 25000)
        events = view_session.sync_views()
        assert [e["view"] for e in events] == ["CompSalaries"]
        status = view_session.views.maintenance_status()
        assert status["NameCard"]["state"] == "fresh"


class TestReadSets:
    def test_comp_salaries_read_sets(self, paper_session):
        query = parse_query(
            "SELECT CompName = X.Name, Salary = W.Salary "
            "FROM Company X WHERE X.Divisions[Y].Employees[W]"
        )
        read = derive_read_sets(query, paper_session.store)
        assert read.classes == {Atom("Company")}
        assert read.where_methods == {Atom("Divisions"), Atom("Employees")}
        assert read.select_methods == {Atom("Name"), Atom("Salary")}
        assert not read.class_wildcard
        assert not read.method_wildcard
        assert not read.literal_domain

    def test_class_variable_widens_to_wildcard(self, paper_session):
        query = parse_query("SELECT X FROM #C X")
        read = derive_read_sets(query, paper_session.store)
        assert read.class_wildcard

    def test_literal_class_domain_flag(self, paper_session):
        query = parse_query("SELECT N FROM Numeral N WHERE N > 5")
        read = derive_read_sets(query, paper_session.store)
        assert read.literal_domain

    def test_computed_method_widens_to_method_wildcard(self, paper_session):
        from repro.datamodel.methods import PythonMethod

        paper_session.store.define_method(
            "Employee",
            PythonMethod(
                name=Atom("Double"),
                fn=lambda s, owner: Value(
                    2 * s.invoke_scalar(owner, "Salary").value
                ),
            ),
        )
        query = parse_query("SELECT X.Double FROM Employee X")
        read = derive_read_sets(query, paper_session.store)
        assert read.method_wildcard

    def test_subquery_reads_are_where_relevant(self, paper_session):
        query = parse_query(
            "SELECT X FROM Company X "
            "WHERE 0 <all (SELECT W.Salary FROM Employee W)"
        )
        read = derive_read_sets(query, paper_session.store)
        assert Atom("Employee") in read.classes
        assert Atom("Salary") in read.where_methods
