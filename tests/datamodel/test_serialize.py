"""Whole-store round-trips through the storage codec, the store's one
persistence format: every fact kind the data model declares or stores
must come back from ``decode_store(encode_store(store))``."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import ObjectStore, PythonMethod
from repro.oid import Atom, FuncOid, Value
from repro.storage import (
    CodecError,
    LogStructuredEngine,
    MemoryEngine,
    WriteBatch,
    decode_store,
    encode_store,
    prefix_range,
)
from repro.workloads.generator import WorkloadConfig, generate_database
from tests.conftest import make_paper_session, store_image


def roundtrip(store: ObjectStore) -> ObjectStore:
    return decode_store(store_image(store))


class TestRoundTrip:
    def test_paper_database_roundtrips(self):
        original = make_paper_session().store
        loaded = roundtrip(original)
        assert loaded.known_objects() == original.known_objects()
        assert loaded.hierarchy.edges() == original.hierarchy.edges()
        for obj in sorted(original.extent("Person"), key=str):
            assert loaded.classes_of(obj) == original.classes_of(obj)
            assert loaded.invoke(obj, "Name") == original.invoke(obj, "Name")
            assert loaded.invoke(obj, "FamMembers") == original.invoke(
                obj, "FamMembers"
            )

    def test_queries_agree_after_roundtrip(self):
        from repro.xsql.session import Session

        session = make_paper_session()
        loaded = Session(roundtrip(session.store))
        for text in (
            "SELECT mary123.Residence.City",
            "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20",
            "SELECT #X WHERE TurboEngine subclassOf #X",
        ):
            assert loaded.query(text).rows() == session.query(text).rows()

    def test_signatures_preserved(self):
        original = make_paper_session().store
        loaded = roundtrip(original)
        sigs = loaded.signatures_of("Employee", "FamMembers")
        assert sigs and sigs[0].set_valued

    def test_funcoids_and_method_args_roundtrip(self):
        store = ObjectStore()
        store.declare_class("P")
        view_obj = FuncOid("V", (Atom("x"), Value(3)))
        store.create_object(view_obj, ["P"])
        store.set_attr(view_obj, "Score", 9, args=[Value(2000)])
        loaded = roundtrip(store)
        assert loaded.invoke(view_obj, "Score", [Value(2000)]) == frozenset(
            {Value(9)}
        )

    def test_relations_roundtrip(self):
        store = ObjectStore()
        store.declare_relation("Likes", ["who", "what"])
        store.insert_tuple("Likes", [Atom("a"), Value("jazz")])
        loaded = roundtrip(store)
        assert (Atom("a"), Value("jazz")) in loaded.relation("Likes")

    def test_resolutions_roundtrip(self):
        store = ObjectStore()
        store.declare_class("A")
        store.declare_class("B")
        store.declare_class("C", ["A", "B"])
        store.set_attr(Atom("A"), "X", 1)
        store.set_attr(Atom("B"), "X", 2)
        store.resolve_inheritance("C", "X", "B")
        store.create_object(Atom("o"), ["C"])
        loaded = roundtrip(store)
        assert loaded.invoke(Atom("o"), "X") == frozenset({Value(2)})

    def test_indexes_rebuilt(self):
        store = make_paper_session().store
        store.enable_index("Residence")
        loaded = roundtrip(store)
        owners = loaded.lookup_by_value("Residence", Atom("addr_austin"))
        assert owners == store.lookup_by_value(
            "Residence", Atom("addr_austin")
        )

    def test_options_preserved(self):
        store = ObjectStore(strict_method_namespace=True, validate_values=True)
        loaded = roundtrip(store)
        assert loaded.catalogue.strict_method_namespace
        assert loaded.validate_values


class TestReportAndErrors:
    def test_report_counts(self):
        store = make_paper_session().store
        report = encode_store(store, MemoryEngine())
        assert report.objects > 30
        assert report.cells > 80
        assert report.classes >= 16

    def test_implementations_reported_skipped(self):
        store = ObjectStore()
        store.declare_class("P")
        store.define_method(
            "P", PythonMethod(name=Atom("M"), fn=lambda s, o: Value(1))
        )
        report = encode_store(store, MemoryEngine())
        assert any("implementation" in entry for entry in report.skipped)

    def test_bad_format_rejected(self):
        # A cell body naming no known oid kind is not codec output.
        image = MemoryEngine()
        encode_store(make_paper_session().store, image)
        key, _value = next(image.range_scan(*prefix_range(("f",))))
        batch = WriteBatch()
        batch.put(key, b'{"s": true, "v": [{"x": 1}]}')
        image.apply(batch)
        with pytest.raises(CodecError):
            decode_store(image)

    def test_file_roundtrip(self, tmp_path):
        store = make_paper_session().store
        path = str(tmp_path / "db")
        engine = LogStructuredEngine(path, sync="never")
        report = encode_store(store, engine)
        engine.close()
        assert report.objects > 0
        reopened = LogStructuredEngine(path, sync="never")
        try:
            loaded = decode_store(reopened)
        finally:
            reopened.close()
        assert loaded.known_objects() == store.known_objects()


@given(seed=st.integers(0, 2000), n_people=st.integers(1, 25))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_synthetic_roundtrip_property(seed, n_people):
    """Property: any generated database survives the codec round-trip."""
    original = generate_database(
        WorkloadConfig(n_people=n_people, seed=seed)
    )
    loaded = roundtrip(original)
    assert loaded.known_objects() == original.known_objects()
    for obj in sorted(original.extent("Employee"), key=str):
        assert loaded.invoke(obj, "Salary") == original.invoke(obj, "Salary")
