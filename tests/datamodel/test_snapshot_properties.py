"""Property tests: a pinned snapshot equals serial replay of its prefix.

Random write scripts with interleaved PIN markers — every snapshot taken
mid-script must, once the whole script has run, still expose exactly the
state a fresh store reaches by replaying the ops before its pin.  This
is the single-threaded core of the snapshot-isolation guarantee (the
concurrent half lives in ``repro.difftest.concurrent``); shrinking gives
minimal counterexample scripts when a pre-image family is wrong.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import ObjectStore
from repro.oid import Atom, Value

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OWNERS = 4
VALUES = 5

# A script step: ("pin",) markers interleaved with mutation ops over a
# small universe of owners and values.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("pin")),
        st.tuples(st.just("create"), st.integers(0, OWNERS - 1)),
        st.tuples(
            st.just("set"),
            st.integers(0, OWNERS - 1),
            st.sampled_from(["Age", "Name"]),
            st.integers(0, VALUES - 1),
        ),
        st.tuples(
            st.just("add"), st.integers(0, OWNERS - 1), st.integers(0, VALUES - 1)
        ),
        st.tuples(
            st.just("unset"),
            st.integers(0, OWNERS - 1),
            st.sampled_from(["Age", "Name", "Tags"]),
        ),
        st.tuples(st.just("employ"), st.integers(0, OWNERS - 1)),
        st.tuples(st.just("unemploy"), st.integers(0, OWNERS - 1)),
        st.tuples(st.just("purge"), st.integers(0, OWNERS - 1)),
        st.tuples(
            st.just("tuple"), st.integers(0, OWNERS - 1), st.integers(0, VALUES - 1)
        ),
    ),
    max_size=30,
)


def fresh_store() -> ObjectStore:
    store = ObjectStore()
    store.declare_class("Person")
    store.declare_class("Employee", ["Person"])
    store.declare_signature("Person", "Name", "String")
    store.declare_signature("Person", "Age", "Numeral")
    store.declare_signature("Person", "Tags", "String", set_valued=True)
    store.declare_relation("Likes", ["who", "what"])
    return store


def apply_step(store, step) -> None:
    """One mutation; invalid ops raise and are skipped identically on
    the live and the replay side."""
    kind = step[0]
    owner = Atom(f"o{step[1]}") if len(step) > 1 else None
    if kind == "create":
        store.create_object(owner, ["Person"])
    elif kind == "set":
        store.set_attr(owner, step[2], step[3])
    elif kind == "add":
        store.add_to_set(owner, "Tags", f"t{step[2]}")
    elif kind == "unset":
        store.unset_attr(owner, step[2])
    elif kind == "employ":
        store.add_instance(owner, "Employee")
    elif kind == "unemploy":
        store.remove_instance(owner, "Employee")
    elif kind == "purge":
        store.purge_object(owner)
    elif kind == "tuple":
        store.insert_tuple("Likes", [owner, Value(f"v{step[2]}")])


def run_script(store, script) -> None:
    for step in script:
        if step[0] == "pin":
            continue
        try:
            apply_step(store, step)
        except Exception:
            continue


def visible_state(store) -> dict:
    """Canonical, order-insensitive dump of everything a reader sees."""
    state = {
        "known": sorted(str(o) for o in store.known_objects()),
        "person": sorted(str(o) for o in store.extent("Person")),
        "employee": sorted(str(o) for o in store.extent("Employee")),
        "likes": sorted(
            tuple(str(t) for t in row) for row in store.relation("Likes").rows()
        ),
    }
    cells = {}
    for i in range(OWNERS):
        owner = Atom(f"o{i}")
        for method in ("Age", "Name", "Tags"):
            values = store.invoke(owner, method)
            if values:
                cells[f"o{i}.{method}"] = sorted(str(v) for v in values)
    state["cells"] = cells
    return state


class TestSnapshotEqualsReplay:
    @SETTINGS
    @given(script=steps)
    def test_pinned_views_match_prefix_replay(self, script):
        live = fresh_store()
        views = []  # (prefix index, StoreView)
        try:
            for index, step in enumerate(script):
                if step[0] == "pin":
                    views.append((index, live.snapshot_view()))
                    continue
                try:
                    apply_step(live, step)
                except Exception:
                    continue
            for prefix, view in views:
                replay = fresh_store()
                run_script(replay, script[:prefix])
                assert visible_state(view) == visible_state(replay)
            # The live store itself must equal full replay (the chains
            # never contaminate live reads).
            replay = fresh_store()
            run_script(replay, script)
            assert visible_state(live) == visible_state(replay)
        finally:
            for _prefix, view in views:
                view.release()
        assert live.version_status()["pins"] == 0

    @SETTINGS
    @given(script=steps)
    def test_release_order_does_not_matter(self, script):
        # Releasing pins youngest-first vs oldest-first must always end
        # with empty chains (GC floor handling).
        for reverse in (False, True):
            live = fresh_store()
            views = []
            for step in script:
                if step[0] == "pin":
                    views.append(live.snapshot_view())
                    continue
                try:
                    apply_step(live, step)
                except Exception:
                    continue
            for view in reversed(views) if reverse else views:
                view.release()
            status = live.version_status()
            assert status["pins"] == 0
            assert status["cell_chain_entries"] == 0
            assert status["membership_chain_entries"] == 0
            assert status["known_chain_entries"] == 0
            assert status["relation_chain_entries"] == 0
