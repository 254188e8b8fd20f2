"""The reified physical-operator tree (:mod:`repro.xsql.operators`).

Every plan/engine/join_mode combination lowers to one operator tree and
runs through :func:`repro.xsql.operators.execute`; these tests pin the
tree shapes per mode, the edge cases the set-at-a-time executor must get
right (empty extents, vacuous quantifiers), and re-execution after
mid-stream schema and data changes.
"""

import json

import pytest

from repro.errors import QueryError
from repro.oid import Variable
from repro.xsql import operators
from repro.xsql.batches import cross_state
from repro.xsql.operators import (
    ColumnBatch,
    ExecContext,
    LowerSpec,
    merge_overlapping,
    execute,
    lower_query,
)
from tests.conftest import make_paper_session, names

X, Y = Variable("X"), Variable("Y")

JOIN_QUERY = (
    "SELECT X, Y FROM Employee X, Employee Y "
    "WHERE X.Salary =some Y.Salary"
)
STRICT_QUERY = (
    "SELECT X FROM Vehicle X "
    "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]"
)


def shape(tree):
    """The operator names of a tree_dict, root first, depth first."""
    out = [tree["operator"]]
    for child in tree.get("children", []):
        out.extend(shape(child))
    return out


class TestTreeShapesPerMode:
    def test_cost_hash_mode_builds_hash_join(self, paper_session):
        compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
        compiled.run()
        assert shape(compiled.last_optree) == [
            "Project", "HashJoin", "ExtentScan", "ExtentScan",
        ]

    def test_cost_nested_mode_builds_quantify(self, paper_session):
        compiled = paper_session.prepare(
            JOIN_QUERY, plan="cost", join_mode="nested"
        )
        compiled.run()
        assert shape(compiled.last_optree) == [
            "Project", "Quantify", "ExtentScan", "ExtentScan",
        ]

    def test_typed_mode_builds_restricted_scan(self, paper_session):
        compiled = paper_session.prepare(STRICT_QUERY, plan="typed")
        compiled.run()
        assert shape(compiled.last_optree) == [
            "Project", "PathEval", "PathEval", "RestrictedScan",
        ]

    def test_naive_engine_is_a_nested_loop_root(self, paper_session):
        compiled = paper_session.prepare(
            "SELECT X FROM Vehicle X", engine="naive"
        )
        compiled.run()
        assert shape(compiled.last_optree) == ["NestedLoop"]

    def test_all_modes_agree_on_the_join(self, paper_session):
        reference = paper_session.query(JOIN_QUERY, plan="none").rows()
        nested = paper_session.query(
            JOIN_QUERY, plan="cost", join_mode="nested"
        ).rows()
        hashed = paper_session.query(JOIN_QUERY, plan="cost").rows()
        assert nested == reference
        assert hashed == reference


class TestEmptyExtents:
    def test_empty_extent_scan_yields_no_rows(self, paper_session):
        paper_session.execute("CREATE CLASS Spacecraft")
        result = paper_session.query("SELECT X FROM Spacecraft X")
        assert len(result) == 0

    @pytest.mark.parametrize("plan", ["none", "greedy", "typed", "cost"])
    def test_join_against_empty_extent(self, paper_session, plan):
        paper_session.execute(
            "CREATE CLASS Spacecraft AS SUBCLASS OF Vehicle"
        )
        text = (
            "SELECT X, Y FROM Employee X, Spacecraft Y "
            "WHERE X.OwnedVehicles =some Y"
        )
        result = paper_session.query(text, plan=plan)
        assert len(result) == 0

    def test_empty_extent_operator_counters(self, paper_session):
        paper_session.execute("CREATE CLASS Spacecraft")
        compiled = paper_session.prepare(
            "SELECT X FROM Spacecraft X", plan="cost"
        )
        compiled.run()
        tree = compiled.last_optree
        scan = tree["children"][0]
        assert scan["operator"] == "ExtentScan"
        assert scan["rows_out"] == 0
        assert tree["rows_out"] == 0


class TestVacuousQuantifiers:
    # all-quantification over an empty set is vacuously true (§3.3): an
    # employee with no FamMembers satisfies ``FamMembers.Age all> N`` for
    # every N.  The set-at-a-time operators must preserve this.

    @pytest.mark.parametrize("plan", ["none", "greedy", "typed", "cost"])
    def test_universal_over_empty_set_is_true(
        self, shared_paper_session, plan
    ):
        text = (
            "SELECT X FROM Employee X WHERE X.FamMembers.Age all> 100000"
        )
        result = shared_paper_session.query(text, plan=plan)
        reference = shared_paper_session.query(text, plan="none")
        assert result.rows() == reference.rows()
        # Vacuously satisfied employees (no FamMembers) are present.
        assert len(result) > 0

    @pytest.mark.parametrize("plan", ["none", "greedy", "typed", "cost"])
    def test_existential_over_empty_set_is_false(
        self, shared_paper_session, plan
    ):
        text = "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 0"
        result = shared_paper_session.query(text, plan=plan)
        assert result.rows() == shared_paper_session.query(
            text, plan="none"
        ).rows()


class TestMidStreamInvalidation:
    def test_schema_change_recompiles_and_reruns(self, paper_session):
        compiled = paper_session.prepare(
            "SELECT X FROM Vehicle X", plan="cost"
        )
        before = compiled.run().rows()
        paper_session.execute(
            "CREATE CLASS Spacecraft AS SUBCLASS OF Vehicle"
        )
        assert compiled.is_stale
        # Re-running rebuilds plan and operator tree against the new
        # schema; the (still empty) subclass adds no rows.
        assert compiled.run().rows() == before
        assert not compiled.is_stale
        assert compiled.last_optree is not None

    def test_data_update_is_seen_by_next_run(self, paper_session):
        compiled = paper_session.prepare(
            "SELECT X FROM Employee X WHERE X.Salary > 90000", plan="cost"
        )
        before = len(compiled.run())
        paper_session.execute(
            "UPDATE CLASS Employee SET ben.Salary = 95000"
        )
        # Data updates do not invalidate compilation, but each run pulls
        # fresh batches from the store: operator outputs are per-run.
        assert len(compiled.run()) == before + 1

    def test_rerun_resets_operator_counters(self, paper_session):
        compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
        compiled.run()
        first = json.dumps(
            compiled.last_optree, default=lambda o: 0
        )
        compiled.run()
        second = json.dumps(
            compiled.last_optree, default=lambda o: 0
        )
        # Counters are per-execution, not cumulative: identical rows in,
        # rows out, and batch counts on both runs (times differ).
        strip = lambda s: json.loads(s)

        def counts(tree):
            out = [(tree["operator"], tree["rows_in"], tree["rows_out"],
                    tree["batches"])]
            for child in tree.get("children", []):
                out.extend(counts(child))
            return out

        assert counts(strip(first)) == counts(strip(second))


class TestExplainAnalyzeSurface:
    def test_json_reports_est_vs_actual_per_operator(self, paper_session):
        compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
        data = json.loads(compiled.explain(format="json", analyze=True))
        tree = data["operators"]
        join = tree["children"][0]
        assert join["operator"] == "HashJoin"
        assert {"rows_in", "rows_out", "batches", "time_ms",
                "cache_hits", "estimated_rows"} <= set(join)

    def test_text_has_operator_section(self, paper_session):
        rendered = paper_session.prepare(
            JOIN_QUERY, plan="cost"
        ).explain(analyze=True)
        assert "physical operators:" in rendered
        assert "HashJoin" in rendered

    def test_plain_explain_has_no_operator_section(self, paper_session):
        compiled = paper_session.prepare(JOIN_QUERY, plan="cost")
        assert "physical operators:" not in compiled.explain()

    def test_analyze_on_union_chain_shows_setop_root(self, paper_session):
        compiled = paper_session.prepare(
            "SELECT X FROM Motorbike X UNION SELECT X FROM Bicycle X"
        )
        rendered = compiled.explain(analyze=True)
        assert "physical operators:" in rendered
        assert shape(compiled.last_optree) == [
            "SetOp", "Project", "ExtentScan", "Project", "ExtentScan",
        ]


class TestFactoredBatches:
    # Unit-level checks on the factored binding-batch algebra.

    def test_merge_of_disjoint_batches(self):
        state = [
            ColumnBatch.from_rows({X}, [{X: 1}, {X: 2}]),
            ColumnBatch.from_rows({Y}, [{Y: 10}]),
        ]
        merged, rest = merge_overlapping(state, {X})
        assert merged.vars == {X}
        assert merged.columns[X] == [1, 2]
        assert rest == [state[1]]

    def test_merge_all_collapses_everything(self):
        state = [
            ColumnBatch.from_rows({X}, [{X: 1}, {X: 2}]),
            ColumnBatch.from_rows({Y}, [{Y: 10}, {Y: 20}]),
        ]
        merged, rest = merge_overlapping(state, set(), merge_all=True)
        assert rest == []
        assert merged.to_rows() == [
            {X: 1, Y: 10},
            {X: 1, Y: 20},
            {X: 2, Y: 10},
            {X: 2, Y: 20},
        ]

    def test_cross_of_empty_state_is_one_empty_env(self):
        assert list(cross_state([])) == [{}]

    def test_cross_of_empty_batch_is_no_envs(self):
        assert list(cross_state([ColumnBatch.from_rows({X}, [])])) == []

    def test_non_root_operator_rejects_result(self, paper_session):
        from repro.xsql.evaluator import Evaluator
        from repro.xsql.parser import parse_query

        query = parse_query("SELECT X FROM Vehicle X WHERE X.Weight > 0")
        root = lower_query(query, LowerSpec())
        evaluator = Evaluator(paper_session.store)
        ctx = ExecContext(evaluator, paper_session.metrics)
        root.open(ctx)
        with pytest.raises(QueryError):
            root.child.result()
        root.close()

    def test_execute_counts_operators(self, paper_session):
        from repro.xsql.evaluator import Evaluator
        from repro.xsql.parser import parse_query

        query = parse_query("SELECT X FROM Vehicle X")
        root = lower_query(query, LowerSpec())
        rows = execute(
            root, Evaluator(paper_session.store), paper_session.metrics
        )
        assert len(list(rows)) == 4
        counters = paper_session.metrics.counters
        assert counters.get("op.Project") == 1
        assert counters.get("op.ExtentScan") == 1


class TestOperatorMemoCapacity:
    def test_grouped_eval_past_capacity_writes_at_most_capacity(
        self, monkeypatch
    ):
        # A batch with more distinct projection keys than the walker memo
        # holds still looks every key up and evaluates each miss, but the
        # conjunct writes at most the memo's capacity of "cond" entries:
        # same rows, every evaluated key still counted as a miss.
        from repro.xsql.paths import PathWalker

        reference = make_paper_session()
        expected = reference.query(
            JOIN_QUERY, plan="cost", join_mode="nested"
        ).rows()
        cold_misses = reference.metrics.counters.get("cache.memo.miss", 0)
        assert cold_misses > 1

        init = PathWalker.__init__
        put = PathWalker.memo_put
        token = PathWalker.memo_token
        written = []
        # The walker's token table is bounded by the memo capacity, so
        # tags are recorded as tokens are issued.
        tags = {}

        def tiny_memo(self, *args, **kw):
            init(self, *args, **kw)
            self._memo_cache_cap = 1

        def tagging_token(self, tag, node):
            issued = token(self, tag, node)
            tags[id(self), issued] = tag
            return issued

        def counting_put(self, key, value):
            written.append(tags.get((id(self), key[0])))
            put(self, key, value)

        monkeypatch.setattr(PathWalker, "__init__", tiny_memo)
        monkeypatch.setattr(PathWalker, "memo_put", counting_put)
        monkeypatch.setattr(PathWalker, "memo_token", tagging_token)
        session = make_paper_session()
        assert session.query(
            JOIN_QUERY, plan="cost", join_mode="nested"
        ).rows() == expected
        assert session.metrics.counters.get("cache.memo.miss", 0) >= (
            cold_misses
        )
        assert written.count("cond") == 1
