"""The view support index and its inverse stay exact under targeted syncs.

``ViewState.support`` maps each owner to the view groups that read it;
``ViewState.group_owners`` is its inverse, so re-deriving one group
touches only that group's old and new owners.  The guard test makes any
walk over ``support`` raise; the property test checks both maps against
a from-scratch registration after random select-only writes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oid import Atom
from tests.conftest import make_paper_session

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BOSSES = """
CREATE VIEW Bosses AS SUBCLASS OF Object
SIGNATURE CompName = String, Boss = String, Salary = Numeral
SELECT CompName = X.Name, Boss = X.President.Name, Salary = W.Salary
FROM Company X
OID FUNCTION OF X, W
WHERE X.Divisions[Y].Employees[W]
"""

THROUGH_VIEW = "SELECT V.Salary FROM Bosses V WHERE V.CompName['Acme']"


class NoScanDict(dict):
    """A dict that answers keyed access but refuses every walk."""

    def __iter__(self):
        raise AssertionError("the whole support index was walked")

    def items(self):
        raise AssertionError("the whole support index was walked")


def bosses_session():
    session = make_paper_session()
    session.execute(BOSSES)
    return session


def test_targeted_sync_does_not_walk_support():
    session = bosses_session()
    state = session.views._states["Bosses"]
    state.support = NoScanDict(state.support)
    session.store.set_attr(Atom("acmeEmp"), "Salary", 21000)
    assert sorted(session.query(THROUGH_VIEW).scalars()) == [
        21000, 250000, 300000
    ]
    status = session.views.maintenance_status()["Bosses"]
    assert status["last_kind"] == "targeted"
    assert status["last_groups"] == 1


def inverse(support):
    owners = {}
    for owner, groups in support.items():
        assert groups, owner
        for oid in groups:
            owners.setdefault(oid, set()).add(owner)
    return owners


COMPANIES = [Atom("uniSQL"), Atom("acme")]
PEOPLE = [Atom("kim"), Atom("presAcme"), Atom("mary123"), Atom("pat")]
EMPLOYEES = [Atom("acmeEmp"), Atom("pat"), Atom("maria"), Atom("john13")]

writes = st.lists(
    st.one_of(
        st.tuples(
            st.just("President"),
            st.sampled_from(COMPANIES),
            st.sampled_from(PEOPLE),
        ),
        st.tuples(
            st.just("Name"),
            st.sampled_from(PEOPLE + COMPANIES),
            st.sampled_from(["A", "B"]),
        ),
        st.tuples(
            st.just("Salary"),
            st.sampled_from(EMPLOYEES),
            st.integers(1, 3),
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(script=writes, sync_every=st.integers(1, 3))
@SETTINGS
def test_support_and_inverse_equal_a_fresh_registration(script, sync_every):
    session = bosses_session()
    manager = session.views
    for step, (method, owner, value) in enumerate(script, start=1):
        session.store.set_attr(owner, method, value)
        if step % sync_every == 0:
            session.sync_views()
    session.sync_views()
    state = manager._states["Bosses"]
    assert state.last_kind in ("materialize", "targeted")
    assert state.group_owners == inverse(state.support)
    fresh = manager._register(
        manager.get("Bosses"), session.evaluator()
    )
    assert state.support == fresh.support
    assert state.group_owners == fresh.group_owners
