"""PointerJoin: fusion selection rules, parity, and EXPLAIN surface.

A conjunct equating an oid-valued path with a range variable can skip
the joined extent entirely: forward navigation dereferences the stored
cell, backward navigation probes the index inverse.  Every mode must
stay bit-identical to hash and nested execution.
"""

import json

import pytest

from repro import Session
from repro.schema.figure1 import build_figure1_schema
from repro.workloads.paper_db import populate_paper_database

#: Forward-fusable on the paper database in auto mode: Employee's
#: extent (8) meets the minimum-extent gate.
FORWARD_QUERY = (
    "SELECT D, Y FROM Division D, Employee Y WHERE D.Manager =some Y"
)
#: Vehicle's restricted extent (4) is under the auto gate: fuses only
#: under force.
SMALL_EXTENT_QUERY = (
    "SELECT X, Y FROM Employee X, Vehicle Y WHERE X.OwnedVehicles =some Y"
)
#: C occurs twice, so forward fusion of C is impossible; the backward
#: head X.Manufacturer fuses X iff the Manufacturer index answers
#: reverse lookups completely.
BACKWARD_QUERY = (
    "SELECT X, C FROM Automobile X, Company C "
    "WHERE X.Manufacturer =some C and C.Name['Acme']"
)
#: Two navigation edges off one dimension variable.
STAR_QUERY = (
    "SELECT D, M, A FROM Division D, Employee M, Address A "
    "WHERE D.Manager =some M and D.Location =some A"
)

PARITY_QUERIES = [
    FORWARD_QUERY,
    SMALL_EXTENT_QUERY,
    BACKWARD_QUERY,
    STAR_QUERY,
    # Scalar (non-oid) equality: classified pointer-ineligible, must
    # still agree everywhere.
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary",
]


def fresh_session() -> Session:
    session = Session()
    build_figure1_schema(session.store)
    populate_paper_database(session.store)
    return session


def cost_entries(session, text, **kwargs):
    compiled = session.prepare(text, plan="cost", **kwargs)
    payload = json.loads(compiled.explain(format="json"))
    return payload["cost"]["entries"]


def strategies(entries):
    return [
        entry["join_strategy"] for entry in entries if entry["kind"] == "cond"
    ]


def access_paths(entries):
    return {
        entry["label"]: entry["access_path"]
        for entry in entries
        if entry["kind"] == "from"
    }


class TestSelection:
    def test_forward_fusion_in_auto_mode(self):
        entries = cost_entries(fresh_session(), FORWARD_QUERY)
        assert strategies(entries) == ["pointer"]
        paths = access_paths(entries)
        assert paths["FROM Employee Y"] == "pointer-fused"
        assert paths["FROM Division D"] == "extent-scan"
        cond = [e for e in entries if e["kind"] == "cond"][0]
        assert cond["access_path"] == "pointer-forward"
        assert cond["direction"] == "forward"

    def test_small_extent_skipped_in_auto_but_forced(self):
        auto = cost_entries(fresh_session(), SMALL_EXTENT_QUERY)
        assert strategies(auto) == ["hash"]
        forced = cost_entries(
            fresh_session(), SMALL_EXTENT_QUERY, pointer_join="force"
        )
        assert strategies(forced) == ["pointer"]

    def test_off_mode_never_fuses(self):
        entries = cost_entries(
            fresh_session(), FORWARD_QUERY, pointer_join="off"
        )
        assert strategies(entries) == ["hash"]
        assert "pointer-fused" not in access_paths(entries).values()

    def test_sole_occurrence_rule(self):
        # Y also appears in a second conjunct: its scan cannot be
        # skipped, so no fusion even under force.
        text = (
            "SELECT D, Y FROM Division D, Employee Y "
            "WHERE D.Manager =some Y and Y.Salary > 0"
        )
        entries = cost_entries(
            fresh_session(), text, pointer_join="force"
        )
        assert "pointer" not in strategies(entries)
        assert "pointer-fused" not in access_paths(entries).values()

    def test_backward_requires_complete_index(self):
        unindexed = cost_entries(
            fresh_session(), BACKWARD_QUERY, pointer_join="force"
        )
        assert "pointer" not in strategies(unindexed)

        session = fresh_session()
        session.enable_index("Manufacturer")
        entries = cost_entries(
            session, BACKWARD_QUERY, pointer_join="force"
        )
        conds = {e["label"]: e for e in entries if e["kind"] == "cond"}
        fused = conds["X.Manufacturer =some C"]
        assert fused["join_strategy"] == "pointer"
        assert fused["direction"] == "backward"
        assert access_paths(entries)["FROM Automobile X"] == "pointer-fused"

    def test_invalid_mode_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            fresh_session().prepare(
                FORWARD_QUERY, plan="cost", pointer_join="sideways"
            )


class TestParity:
    @pytest.mark.parametrize("text", PARITY_QUERIES)
    def test_pointer_matches_hash_nested_and_columnar(self, text):
        def run(**kwargs):
            session = fresh_session()
            session.enable_index("Manufacturer")
            return session.query(text, plan="cost", **kwargs)

        hash_result = run(pointer_join="off")
        pointer_result = run(pointer_join="force")
        nested_result = run(join_mode="nested")
        assert pointer_result.rows() == hash_result.rows(), text
        assert pointer_result.rows() == nested_result.rows(), text
        # The Sequence contract: enumeration order must not leak the
        # join machinery either.
        assert list(pointer_result) == list(hash_result), text

    def test_nested_join_mode_ignores_fusion_marks(self):
        nested = fresh_session().query(
            FORWARD_QUERY, plan="cost", join_mode="nested", pointer_join="force"
        )
        reference = fresh_session().query(FORWARD_QUERY, plan="cost")
        assert nested.rows() == reference.rows()
        assert list(nested) == list(reference)

    def test_ddl_after_prepare_recompiles_correctly(self):
        # Losing the backward index is DDL: the prepared statement is
        # transparently recompiled without fusion, same rows.
        session = fresh_session()
        session.enable_index("Manufacturer")
        compiled = session.prepare(
            BACKWARD_QUERY, plan="cost", pointer_join="force"
        )
        before = compiled.run().rows()
        session.disable_index("Manufacturer")
        after = session.query(
            BACKWARD_QUERY, plan="cost", pointer_join="force"
        )
        assert after.rows() == before


class TestMemo:
    def test_second_run_dereferences_from_the_memo(self, monkeypatch):
        from repro.xsql.operators import PointerJoin

        session = fresh_session()
        first = session.query(FORWARD_QUERY, plan="cost", pointer_join="force")
        counters = session.metrics.counters
        assert counters.get("join.pointer", 0) == 1
        binds = []
        bind = PointerJoin._bind

        def counting(self, *args):
            binds.append(args)
            return bind(self, *args)

        monkeypatch.setattr(PointerJoin, "_bind", counting)
        hits = counters.get("cache.memo.hit", 0)
        second = session.query(
            FORWARD_QUERY, plan="cost", pointer_join="force"
        )
        assert list(second) == list(first)
        assert counters.get("join.pointer", 0) == 2
        assert binds == []
        # The dereferences answered from the memo are counted as hits.
        assert counters.get("cache.memo.hit", 0) > hits


class TestExplainSurface:
    def test_analyze_shows_direction_and_derefs(self):
        session = fresh_session()
        report = session.explain(FORWARD_QUERY, plan="cost", analyze=True)
        assert "join=pointer" in report
        assert "pointer-fused" in report
        assert "PointerJoin" in report
        assert "forward derefs=4 derefs/batch=4" in report
        assert "forward navigation binds Y" in report
        assert "pointer_join=auto" in report

    def test_options_cache_key_separates_modes(self):
        session = fresh_session()
        auto = session.prepare(FORWARD_QUERY, plan="cost")
        off = session.prepare(
            FORWARD_QUERY, plan="cost", pointer_join="off"
        )
        assert auto is not off
        assert session.prepare(FORWARD_QUERY, plan="cost") is auto
