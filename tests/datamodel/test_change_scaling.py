"""Per-change store operations cost O(change), not O(store).

``extent`` of a class without implicit members reads membership facts
only, and ``purge_object`` drops exactly the purged object's index
entries.  The guard tests make any walk over the known set or over the
index tables raise; the property tests check the results against the
brute-force definitions over random write histories.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import ObjectStore
from repro.datamodel.catalogue import BUILTIN_CLASSES
from repro.oid import Atom

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: The store's cell fact primitives (``ObjectStore``'s read path).
CELL_PRIMITIVES = ("_column", "_cell_lookup", "_cell_methods")


class NoScanSet(set):
    """A set that answers membership and size but refuses iteration."""

    def __iter__(self):
        raise AssertionError("the whole known set was walked")


class NoScanDict(dict):
    """A dict that answers keyed access but refuses every walk."""

    def __iter__(self):
        raise AssertionError("a whole index table was walked")

    def keys(self):
        raise AssertionError("a whole index table was walked")

    def values(self):
        raise AssertionError("a whole index table was walked")

    def items(self):
        raise AssertionError("a whole index table was walked")


def brute_extent(store, cls, direct=False):
    """The scan-everything definition: test every known oid's classes."""
    cls = cls if isinstance(cls, Atom) else Atom(cls)
    hierarchy, catalogue = store.hierarchy, store.catalogue
    members = set()
    for obj in store.known_objects():
        classes = store.explicit_classes_of(obj) | catalogue.implicit_classes(
            obj
        )
        if cls in classes or (
            not direct and any(hierarchy.is_subclass(c, cls) for c in classes)
        ):
            members.add(obj)
    return frozenset(members)


@pytest.fixture
def store() -> ObjectStore:
    s = ObjectStore()
    s.declare_class("Person")
    s.declare_class("Employee", ["Person"])
    s.declare_signature("Person", "Name", "String")
    s.declare_signature("Person", "Age", "Numeral")
    for i in range(20):
        pid = s.create_object(
            Atom(f"p{i}"), ["Employee" if i % 2 else "Person"]
        )
        s.set_attr(pid, "Name", f"name{i}")
        s.set_attr(pid, "Age", 20 + i)
    return s


class TestGuards:
    def test_live_extent_of_user_class_does_not_walk_known(self, store):
        expected = brute_extent(store, "Employee")
        store._known = NoScanSet(store._known)
        assert store.extent("Employee") == expected
        assert store.extent("Person", direct=True) == frozenset(
            Atom(f"p{i}") for i in range(0, 20, 2)
        )

    def test_guard_catches_a_known_set_walk(self, store):
        # Object's extent is the active domain: it must scan, and the
        # guard must notice.
        store._known = NoScanSet(store._known)
        with pytest.raises(AssertionError, match="known set"):
            store.extent("Object")

    def test_pinned_extent_of_user_class_does_not_walk_known(
        self, store, monkeypatch
    ):
        view = store.snapshot_view()
        expected = brute_extent(view, "Employee")
        store.create_object(Atom("late"), ["Employee"])
        store.purge_object(Atom("p1"))

        def refuse():
            raise AssertionError("the known set was read")

        # The view's known set at the pin is its _known_oids() primitive;
        # known_objects() and the active-domain scan both read it.
        monkeypatch.setattr(view, "_known_oids", refuse)
        try:
            assert view.extent("Employee") == expected
            assert Atom("p1") in view.extent("Employee")
            assert Atom("late") not in view.extent("Person")
            with pytest.raises(AssertionError, match="known set"):
                view.extent("Object")
        finally:
            view.release()

    def test_purge_does_not_walk_index_tables(self, store):
        store.enable_index("Name")
        store.enable_index("Age")
        entries = store._indexes._entries
        for method in list(entries):
            entries[method] = NoScanDict(entries[method])
        store.purge_object(Atom("p3"))
        assert store.lookup_by_value("Name", "name3") == frozenset()
        assert store.lookup_by_value("Name", "name4") == frozenset(
            {Atom("p4")}
        )

    def test_class_defaults_are_found_without_a_class_scan(
        self, paper_session, monkeypatch
    ):
        # A class default is a cell in the method's column, so neither
        # the soundness test of a reverse lookup nor an invocation miss
        # reads more cells as the schema grows.
        store = paper_session.store
        mary = Atom("mary123")
        reads = {
            "reverse_lookup_sound": lambda: store.reverse_lookup_sound(
                "Salary"
            ),
            "invoke_miss": lambda: store.invoke(mary, "Nickname"),
        }

        def cell_primitive_calls(read) -> int:
            calls = []
            for name in CELL_PRIMITIVES:
                primitive = getattr(store, name)

                def counted(*args, _primitive=primitive):
                    calls.append(1)
                    return _primitive(*args)

                monkeypatch.setattr(store, name, counted)
            read()
            monkeypatch.undo()
            return len(calls)

        before = {name: cell_primitive_calls(r) for name, r in reads.items()}
        for i in range(200):
            store.declare_class(f"Extra{i}", ["Person"])
        after = {name: cell_primitive_calls(r) for name, r in reads.items()}
        assert after == before
        assert store.reverse_lookup_sound("Salary")
        assert store.invoke(mary, "Nickname") == frozenset()


# -- exactness over random histories ---------------------------------------

OWNERS = [Atom(f"o{i}") for i in range(5)]
CLASSES = ["A", "B", "C"]
VALUES = [Atom("o0"), Atom("o4"), 1, 2, "x", True, Atom("stray")]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("create"),
            st.integers(0, 4),
            st.sampled_from(CLASSES),
        ),
        st.tuples(
            st.just("set"), st.integers(0, 4), st.integers(0, 6)
        ),
        st.tuples(
            st.just("add"), st.integers(0, 4), st.integers(0, 6)
        ),
        st.tuples(st.just("unset"), st.integers(0, 4), st.just(0)),
        st.tuples(
            st.just("drop"),
            st.integers(0, 4),
            st.sampled_from(CLASSES),
        ),
        st.tuples(st.just("purge"), st.integers(0, 4), st.just(0)),
    ),
    max_size=30,
)


def base_store(literal_superclass: bool) -> ObjectStore:
    s = ObjectStore()
    s.declare_class("A")
    s.declare_class("B", ["A"])
    s.declare_class("C")
    if literal_superclass:
        # A user class above two literal classes: its non-direct extent
        # must still enumerate the literals the store has seen.
        s.declare_class("Literal")
        s.declare_class("Numeral", ["Literal"])
        s.declare_class("String", ["Literal"])
    return s


def apply(store: ObjectStore, script) -> None:
    for op, owner_index, arg in script:
        owner = OWNERS[owner_index]
        try:
            if op == "create":
                store.create_object(owner, [arg])
            elif op == "set":
                store.set_attr(owner, "Ref", VALUES[arg])
            elif op == "add":
                store.add_to_set(owner, "Refs", VALUES[arg])
            elif op == "unset":
                store.unset_attr(owner, "Ref")
            elif op == "drop":
                store.remove_instance(owner, arg)
            else:
                store.purge_object(owner)
        except Exception:
            # Scalar/set arrow conflicts are legal rejections.
            continue


def all_classes(store):
    return sorted(store.hierarchy.classes(), key=str)


def assert_extents_exact(store):
    classes = all_classes(store)
    for builtin in (*BUILTIN_CLASSES, Atom("Object")):
        assert builtin in classes
    for cls in classes:
        for direct in (False, True):
            assert store.extent(cls, direct) == brute_extent(
                store, cls, direct
            ), (cls, direct)


@given(
    before=ops,
    after=ops,
    literal_superclass=st.booleans(),
)
@SETTINGS
def test_extent_equals_brute_force_live_and_pinned(
    before, after, literal_superclass
):
    store = base_store(literal_superclass)
    apply(store, before)
    view = store.snapshot_view()
    try:
        pinned = {
            (cls, direct): store.extent(cls, direct)
            for cls in all_classes(store)
            for direct in (False, True)
        }
        apply(store, after)
        assert_extents_exact(store)
        assert_extents_exact(view)
        for (cls, direct), members in pinned.items():
            assert view.extent(cls, direct) == members, (cls, direct)
    finally:
        view.release()


def index_contents(store, method):
    return {
        value: frozenset(bucket)
        for value, bucket in store._indexes._entries.get(method, {}).items()
    }


@given(script=ops)
@SETTINGS
def test_index_after_purges_equals_fresh_backfill(script):
    incremental = base_store(False)
    incremental.enable_index("Ref")
    incremental.enable_index("Refs")
    apply(incremental, script)
    backfilled = base_store(False)
    apply(backfilled, script)
    backfilled.enable_index("Ref")
    backfilled.enable_index("Refs")
    for method in ("Ref", "Refs"):
        assert index_contents(incremental, method) == index_contents(
            backfilled, method
        ), method
