"""Tests for the cost-based planner and the ``plan="cost"`` discipline."""

import pytest

from repro.workloads.generator import WorkloadConfig, generate_database
from repro.xsql.costplan import EXHAUSTIVE_LIMIT, CostPlanner
from repro.xsql.parser import parse_query
from repro.xsql.session import Session


@pytest.fixture
def workload_session() -> Session:
    # 120 people: comfortably above the planner's min_scan_rows floor, so
    # selective predicates make an index probe worth auto-enabling.
    return Session(generate_database(WorkloadConfig(n_people=120, seed=29)))


SELECTIVE = "SELECT X FROM Person X WHERE X.Name['P17']"


def _probes_of(planner, text):
    from repro.xsql.planner import _flatten

    query = parse_query(text)
    return planner.find_probes(_flatten(query.where))


class TestProbeDetection:
    def test_ground_selector_probe_found(self, workload_session):
        planner = CostPlanner(workload_session.store, index_mode="manual")
        probes = _probes_of(planner, SELECTIVE)
        assert [p.render() for p in probes] == ["X.Name['P17']"]

    def test_no_probe_inside_disjunction(self, workload_session):
        planner = CostPlanner(workload_session.store, index_mode="manual")
        assert not _probes_of(
            planner,
            "SELECT X FROM Person X "
            "WHERE (X.Name['P17']) or (X.Name['P18'])",
        )

    def test_no_probe_inside_negation(self, workload_session):
        planner = CostPlanner(workload_session.store, index_mode="manual")
        assert not _probes_of(
            planner, "SELECT X FROM Person X WHERE not X.Name['P17']"
        )

    def test_variable_selector_is_not_a_probe(self, workload_session):
        planner = CostPlanner(workload_session.store, index_mode="manual")
        assert not _probes_of(
            planner, "SELECT X FROM Person X WHERE X.Name[N]"
        )


class TestAutoEnable:
    def test_auto_mode_enables_paying_index(self, workload_session):
        store = workload_session.store
        assert not store.is_indexed("Name")
        planner = CostPlanner(store, index_mode="auto")
        plan = planner.plan(parse_query(SELECTIVE))
        assert store.is_indexed("Name")
        assert [m.name for m in plan.auto_enabled] == ["Name"]

    def test_manual_mode_never_enables(self, workload_session):
        store = workload_session.store
        planner = CostPlanner(store, index_mode="manual")
        plan = planner.plan(parse_query(SELECTIVE))
        assert not store.is_indexed("Name")
        assert plan.auto_enabled == ()

    def test_manual_mode_uses_existing_index(self, workload_session):
        store = workload_session.store
        store.enable_index("Name")
        planner = CostPlanner(store, index_mode="manual")
        plan = planner.plan(parse_query(SELECTIVE))
        assert plan.entries[0].access_path == "index-probe"

    def test_off_mode_forbids_probes(self, workload_session):
        store = workload_session.store
        store.enable_index("Name")
        planner = CostPlanner(store, index_mode="off")
        plan = planner.plan(parse_query(SELECTIVE))
        assert plan.probes == ()
        assert plan.entries[0].access_path == "extent-scan"

    def test_tiny_extents_never_pay(self, paper_session):
        # The paper database is far below min_scan_rows.
        store = paper_session.store
        planner = CostPlanner(store, index_mode="auto")
        planner.plan(parse_query("SELECT X FROM Person X WHERE X.Name['mary']"))
        assert store.indexed_methods() == frozenset()

    def test_invalid_index_mode_rejected(self, workload_session):
        with pytest.raises(ValueError):
            CostPlanner(workload_session.store, index_mode="sometimes")


class TestOrdering:
    def test_ordered_where_preserves_conjuncts(self, workload_session):
        from repro.xsql.planner import _flatten

        planner = CostPlanner(workload_session.store, index_mode="manual")
        query = parse_query(
            "SELECT X FROM Person X "
            "WHERE X.Employer[E] and X.Name['P17'] and E.Name[CN]"
        )
        plan = planner.plan(query)
        assert plan.ordered_where is not None
        original = {str(c) for c in _flatten(query.where)}
        ordered = {str(c) for c in _flatten(plan.ordered_where)}
        assert original == ordered

    def test_small_conjunctions_search_exhaustively(self, workload_session):
        planner = CostPlanner(workload_session.store, index_mode="manual")
        plan = planner.plan(
            parse_query(
                "SELECT X FROM Person X WHERE X.Employer[E] and E.Name[N]"
            )
        )
        assert plan.search == "exhaustive"

    def test_large_conjunctions_fall_back_to_greedy(self, workload_session):
        conjuncts = " and ".join(
            f"X.Name[N{i}]" for i in range(EXHAUSTIVE_LIMIT + 1)
        )
        planner = CostPlanner(workload_session.store, index_mode="manual")
        plan = planner.plan(
            parse_query(f"SELECT X FROM Person X WHERE {conjuncts}")
        )
        assert plan.search == "greedy"

    def test_update_queries_are_not_applicable(self, workload_session):
        planner = CostPlanner(workload_session.store)
        query = parse_query(
            "SELECT X FROM Person X "
            "WHERE (UPDATE CLASS Person SET X.Age = 1)"
        )
        assert not planner.applicable(query)


class TestCostExecution:
    AGREEMENT_QUERIES = [
        SELECTIVE,
        "SELECT X FROM Person X WHERE X.Employer[E] and E.Name[N]",
        "SELECT X, Y FROM Person X, Person Y "
        "WHERE X.Employer[E] and Y.Employer[E] and X.Name['P17']",
        "SELECT X FROM Person X WHERE not X.Name['P17']",
    ]

    @pytest.mark.parametrize("text", AGREEMENT_QUERIES)
    def test_cost_plan_agrees_with_reference(self, workload_session, text):
        reference = workload_session.query(text, plan="none")
        cost = workload_session.query(text, plan="cost")
        assert cost.rows() == reference.rows()
        assert list(cost) == list(reference)

    def test_trace_aligns_with_plan_entries(self, workload_session):
        compiled = workload_session.prepare(SELECTIVE, plan="cost")
        compiled.run()
        assert compiled.cost_plan is not None
        assert compiled.last_trace is not None
        assert len(compiled.last_trace) == len(compiled.cost_plan.entries)

    def test_replan_when_statistics_drift(self, workload_session):
        compiled = workload_session.prepare(SELECTIVE, plan="cost")
        compiled.run()
        ticket, schema = compiled.cost_plan.ticket, compiled.schema
        # A data write moves the ticket but not the schema; the next
        # run re-plans in place without a full recompile.
        store = workload_session.store
        person = sorted(store.extent("Person"), key=str)[0]
        store.unset_attr(person, "Name")
        compiled.run()
        assert compiled.cost_plan.ticket > ticket
        assert compiled.schema is schema

    def test_index_toggle_keeps_compilation_and_recosts(
        self, workload_session
    ):
        # An index is an access path, not schema: dropping the one a
        # cached statement probes re-costs it without recompiling.
        session = workload_session
        session.index_mode = "manual"
        session.enable_index("Name")
        compiled = session.prepare(SELECTIVE, plan="cost")
        rows = compiled.run().rows()
        assert compiled.cost_plan.probes
        statement = compiled.statement
        before = dict(session.stats()["counters"])
        session.disable_index("Name")
        again = session.prepare(SELECTIVE, plan="cost")
        assert again is compiled
        assert again.run().rows() == rows
        after = session.stats()["counters"]
        assert after.get("cache.invalidated", 0) == before.get(
            "cache.invalidated", 0
        )
        assert after["plan.cost.replan"] > before.get("plan.cost.replan", 0)
        assert compiled.statement is statement
        assert compiled.cost_plan.probes == ()

    def test_estimation_error_is_observed(self, workload_session):
        workload_session.query(SELECTIVE, plan="cost")
        snapshot = workload_session.stats()
        assert "cost.estimation_error" in snapshot.get("observations", {})

    def test_probe_counted_in_metrics(self, workload_session):
        workload_session.query(SELECTIVE, plan="cost")
        counters = workload_session.stats()["counters"]
        assert counters.get("cost.probe", 0) >= 1


class TestAccessPaths:
    def test_access_paths_on_cost_compilation(self, workload_session):
        compiled = workload_session.prepare(SELECTIVE, plan="cost")
        paths = compiled.access_paths()
        assert paths[0]["kind"] == "from"
        assert paths[0]["access_path"] == "index-probe"

    def test_advisory_access_paths_do_not_touch_the_store(
        self, workload_session
    ):
        compiled = workload_session.prepare(SELECTIVE, plan="greedy")
        ticket = workload_session.store.ticket
        paths = compiled.access_paths()
        assert paths, "advisory plan should still be produced"
        assert workload_session.store.ticket == ticket
        assert not workload_session.store.is_indexed("Name")
