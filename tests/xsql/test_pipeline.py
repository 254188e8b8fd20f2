"""The staged pipeline: CompiledQuery, the statement cache, and metrics."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Session
from repro.difftest.grammar import QueryGenerator, SchemaModel
from repro.difftest.oracle import shape_sibling
from repro.errors import QueryError
from repro.oid import Value
from repro.storage import decode_store
from repro.typing.assignments import TypeAssignment
from repro.workloads.generator import WORKLOAD_PRESETS, generate_database
from repro.xsql.normalize import map_terms
from repro.xsql.parser import normalize_statement, parse_statement_raw
from repro.xsql.pipeline import ENGINES, PLAN_MODES, CompiledQuery
from tests.conftest import make_paper_session, names, store_image

STRICT_QUERY = (
    "SELECT X FROM Vehicle X "
    "WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]"
)
FAMILY_QUERY = "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20"
AGE_QUERY = "SELECT X FROM Employee X WHERE X.FamMembers.Age some> {}"
CITY_QUERY = "SELECT X FROM Person X WHERE X.Residence[Y].City['{}']"

#: The paper's examples that carry literals, and statements of every
#: other kind with literals in each place a literal can stand.
LITERAL_TEXTS = [
    "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
    "SELECT Y FROM Person X WHERE X.Y.City['newyork']",
    FAMILY_QUERY,
    "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
    "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
    "and X.President.Age < 30",
    "SELECT Y, X FROM Employee Y, Employee X "
    "WHERE count(Y.FamMembers) > 0 and count(X.FamMembers) > 0 "
    "and Y.FamMembers.Age all<all X.FamMembers.Age",
    "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
    "and X.Residence =all X.FamMembers.Residence and X.Salary < 35000",
    "SELECT X.Age[30] FROM Person X "
    "UNION SELECT X.Age[41.5] FROM Employee X MINUS SELECT 'nobody'",
    "SELECT X FROM Employee X WHERE X.Salary > 90000 "
    "and UPDATE CLASS Employee SET X.Salary = 1",
    "UPDATE CLASS Employee SET ben.Salary = 95000",
    "UPDATE CLASS Person SET mary123.Name = 'Mary', mary123.Age = 31",
    "INSERT INTO Pairs VALUES (1, 'a'), (2, 'a'), (f(3, 'b'), 4.5)",
    "INSERT INTO Rich SELECT X FROM Employee X WHERE X.Salary > 30000",
    "CREATE VIEW Rich AS SUBCLASS OF Object SIGNATURE Who = String "
    "SELECT Who = X.Name FROM Employee X OID FUNCTION OF X "
    "WHERE X.Salary > 30000",
    "ALTER CLASS Employee ADD SIGNATURE Bonus : Numeral => Numeral "
    "SELECT (Bonus @ P) = X.Salary * 2 FROM Employee X OID X "
    "WHERE X.Age > 18",
]


def literal_values(statement):
    """The literal payloads of *statement*, in tree order."""
    found = []

    def visit(term):
        if isinstance(term, Value):
            found.append(term.value)
        return term

    map_terms(statement, visit)
    return found


@pytest.fixture(scope="module")
def tiny_generator():
    """A session over the difftest's tiny store and its query grammar."""
    store = generate_database(WORKLOAD_PRESETS["tiny"])
    generator = QueryGenerator(SchemaModel.from_store(store), seed=0)
    return Session(store), generator


class TestCompiledQuery:
    def test_prepare_returns_runnable_compiled_query(self, paper_session):
        compiled = paper_session.prepare(FAMILY_QUERY)
        assert isinstance(compiled, CompiledQuery)
        assert names(compiled.run()) == ["john13", "kim"]
        # Re-running yields the same answer without recompiling.
        assert names(compiled.run()) == ["john13", "kim"]
        assert paper_session.stats()["timers"]["parse"]["count"] == 1

    def test_compiled_query_is_callable(self, paper_session):
        compiled = paper_session.prepare(FAMILY_QUERY)
        assert compiled().rows() == compiled.run().rows()

    def test_prepared_query_sees_later_data_updates(self, paper_session):
        compiled = paper_session.prepare(
            "SELECT X FROM Employee X WHERE X.Salary > 90000"
        )
        before = len(compiled.run())
        paper_session.execute("UPDATE CLASS Employee SET ben.Salary = 95000")
        # Data updates do not invalidate the plan, but the execution
        # always runs against current state.
        assert len(compiled.run()) == before + 1

    def test_ddl_marks_compilation_stale(self, paper_session):
        compiled = paper_session.prepare(FAMILY_QUERY)
        assert not compiled.is_stale
        paper_session.execute("CREATE CLASS Spacecraft")
        assert compiled.is_stale
        assert names(compiled.run()) == ["john13", "kim"]
        assert not compiled.is_stale
        assert (
            paper_session.stats()["counters"]["cache.invalidated"] >= 1
        )


class TestPlanAndEngineMatrix:
    @pytest.mark.parametrize("plan", PLAN_MODES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_modes_agree(self, shared_paper_session, plan, engine):
        result = shared_paper_session.query(
            STRICT_QUERY, plan=plan, engine=engine
        )
        reference = shared_paper_session.query(STRICT_QUERY)
        assert result.rows() == reference.rows()

    def test_typed_plan_applies_restrictions(self, paper_session):
        paper_session.query(STRICT_QUERY, plan="typed")
        stats = paper_session.stats()
        assert stats["observations"]["restriction"]["count"] >= 1
        assert "plan.typed.fallback" not in stats["counters"]

    def test_typed_plan_falls_back_outside_strict(self, paper_session):
        # Ill-typed per §6.2, but evaluable: typed planning must fall
        # back to the greedy planner instead of raising.
        text = "SELECT X FROM Person X WHERE X.Divisions[D]"
        result = paper_session.query(text, plan="typed")
        assert result.rows() == paper_session.query(text).rows()
        assert paper_session.stats()["counters"]["plan.typed.fallback"] == 1

    def test_naive_engine_rejects_ddl(self, paper_session):
        with pytest.raises(QueryError):
            paper_session.query("CREATE CLASS Oddity", engine="naive")

    def test_unknown_plan_and_engine_raise(self, shared_paper_session):
        with pytest.raises(QueryError):
            shared_paper_session.query(FAMILY_QUERY, plan="bogus")
        with pytest.raises(QueryError):
            shared_paper_session.query(FAMILY_QUERY, engine="bogus")


class TestStatementCache:
    def test_repeated_query_hits_cache(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        paper_session.query(FAMILY_QUERY)
        counters = paper_session.stats()["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1
        assert paper_session.stats()["timers"]["parse"]["count"] == 1

    def test_plan_modes_cache_separately(self, paper_session):
        paper_session.query(FAMILY_QUERY, plan="none")
        paper_session.query(FAMILY_QUERY, plan="greedy")
        assert paper_session.stats()["counters"]["cache.miss"] == 2

    def test_ddl_invalidates_cached_statement(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        paper_session.execute("CREATE CLASS Starbase")
        paper_session.query(FAMILY_QUERY)
        counters = paper_session.stats()["counters"]
        assert counters["cache.invalidated"] >= 1

    def test_data_updates_do_not_invalidate(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        paper_session.execute("UPDATE CLASS Employee SET ben.Salary = 1")
        paper_session.query(FAMILY_QUERY)
        counters = paper_session.stats()["counters"]
        assert "cache.invalidated" not in counters
        assert counters["cache.hit"] == 1

    def test_lru_eviction(self, paper_session):
        paper_session.pipeline.cache_size = 2
        paper_session.query("SELECT X FROM Company X")
        paper_session.query("SELECT X FROM Division X")
        paper_session.query("SELECT X FROM Vehicle X")
        assert len(paper_session.pipeline) == 2
        assert paper_session.stats()["counters"]["cache.evicted"] == 1
        # The evicted (oldest) entry misses again.
        paper_session.query("SELECT X FROM Company X")
        assert paper_session.stats()["counters"]["cache.miss"] == 4

    def test_exact_text_index_follows_eviction_and_replacement(
        self, paper_session
    ):
        counters = paper_session.metrics.counters
        paper_session.pipeline.cache_size = 2
        paper_session.query(FAMILY_QUERY, plan="none")
        paper_session.query(FAMILY_QUERY, plan="greedy")
        paper_session.query("SELECT X FROM Company X")  # evicts plan=none
        assert counters["cache.evicted"] == 1
        paper_session.query(FAMILY_QUERY, plan="none")
        assert counters["cache.miss"] == 4
        paper_session.query("SELECT X FROM Company X")
        assert counters["cache.hit"] == 1
        # A stale entry replaced by another text of its shape is no
        # longer found by its own text: that text now rebinds.
        paper_session.pipeline.cache_size = 8
        newyork = CITY_QUERY.format("newyork")
        expected = paper_session.query(newyork).rows()
        paper_session.execute("CREATE CLASS Starbase")
        paper_session.query(CITY_QUERY.format("austin"))
        assert counters["cache.invalidated"] == 1
        assert paper_session.query(newyork).rows() == expected
        assert counters["cache.rebind"] == 1

    @pytest.mark.parametrize("plan", ["cost", "typed"])
    def test_range_classes_computed_once_per_compile(
        self, paper_session, monkeypatch, plan
    ):
        """Ranges depend only on the schema: re-runs of a prepared
        statement, after a data write too, never recompute them."""
        compiled = paper_session.prepare(STRICT_QUERY, plan=plan)
        first = list(compiled.run())

        def recomputed(self, typed_query):
            raise AssertionError("a re-run recomputed the ranges")

        monkeypatch.setattr(TypeAssignment, "all_ranges", recomputed)
        assert list(compiled.run()) == first
        paper_session.execute("UPDATE CLASS Employee SET ben.Salary = 1")
        assert list(compiled.run()) == first
        assert compiled.range_classes  # the restrictions were in play

    @pytest.mark.parametrize("plan", PLAN_MODES)
    def test_same_shape_text_skips_parse_normalize_analyze(
        self, paper_session, monkeypatch, plan
    ):
        """After the first text of a shape, another text of that shape
        compiles by rebinding its literals: parser, normalizer and typing
        analysis never run for it."""
        from repro.typing import analysis
        from repro.xsql import pipeline

        text = CITY_QUERY.format("austin")
        expected = make_paper_session().query(text, plan=plan).rows()
        paper_session.query(CITY_QUERY.format("newyork"), plan=plan)

        def forbidden(*args, **kwargs):
            raise AssertionError("a same-shape text re-ran a front-end stage")

        for name in (
            "parse_statement_raw", "parse_tokens", "normalize_statement"
        ):
            monkeypatch.setattr(pipeline, name, forbidden, raising=False)
        monkeypatch.setattr(analysis, "analyze", forbidden)
        assert paper_session.query(text, plan=plan).rows() == expected
        counters = paper_session.stats()["counters"]
        assert counters["cache.rebind"] == 1
        assert counters["cache.hit"] == 1

    def test_prepared_handles_of_one_shape_run_interleaved(
        self, paper_session
    ):
        """Many prepared handles of one shape, each with its own
        literal, run in any order: a rebind never touches the entry it
        was rebound from."""
        ages = (5, 20, 30)
        reference = make_paper_session()
        expected = {
            age: names(reference.query(AGE_QUERY.format(age), plan="cost"))
            for age in ages
        }
        assert len({tuple(rows) for rows in expected.values()}) == 3
        handles = {
            age: paper_session.prepare(AGE_QUERY.format(age), plan="cost")
            for age in ages
        }
        assert paper_session.stats()["counters"]["cache.rebind"] == 2
        for _ in range(2):
            for age in (30, 5, 20):
                assert names(handles[age].run()) == expected[age]
        assert handles[5].source == AGE_QUERY.format(5)
        assert literal_values(handles[5].statement) == [5]

    def test_keywords_stay_verbatim_when_literals_rebind(self, paper_session):
        # Value(True) == Value(1): only a (type, value) substitution
        # keeps the ``true`` keyword when the literal 1 is rebound.
        paper_session.prepare(
            "SELECT X FROM Person X WHERE X.Retired[true] and X.Age[1]"
        )
        text = "SELECT X FROM Person X WHERE X.Retired[true] and X.Age[2]"
        compiled = paper_session.prepare(text)
        assert paper_session.stats()["counters"]["cache.rebind"] == 1
        assert compiled.statement == normalize_statement(
            parse_statement_raw(text)
        )
        values = literal_values(compiled.statement)
        assert values == [True, 2]
        assert [type(v) for v in values] == [bool, int]

    def test_int_and_float_literals_are_different_shapes(self, paper_session):
        paper_session.prepare(AGE_QUERY.format("20"))
        compiled = paper_session.prepare(AGE_QUERY.format("20.0"))
        counters = paper_session.stats()["counters"]
        assert counters["cache.miss"] == 2
        assert "cache.rebind" not in counters
        assert [type(v) for v in literal_values(compiled.statement)] == [
            float
        ]

    def test_literal_equality_pattern_is_part_of_the_shape(
        self, paper_session
    ):
        text = "SELECT X FROM Person X WHERE X.Name['{}'] and X.Sex['{}']"
        paper_session.prepare(text.format("a", "a"))
        paper_session.prepare(text.format("a", "b"))
        counters = paper_session.metrics.counters
        assert counters["cache.miss"] == 2
        assert "cache.rebind" not in counters
        compiled = paper_session.prepare(text.format("c", "c"))
        assert counters["cache.rebind"] == 1
        assert literal_values(compiled.statement) == ["c", "c"]
        compiled = paper_session.prepare(text.format("d", "e"))
        assert counters["cache.rebind"] == 2
        assert literal_values(compiled.statement) == ["d", "e"]

    def test_escaped_string_literal_rebinds(self, paper_session):
        paper_session.prepare(CITY_QUERY.format("newyork"))
        text = CITY_QUERY.format("it\\'s")
        compiled = paper_session.prepare(text)
        assert paper_session.stats()["counters"]["cache.rebind"] == 1
        assert literal_values(compiled.statement) == ["it's"]
        assert compiled.statement == normalize_statement(
            parse_statement_raw(text)
        )
        assert len(compiled.run()) == 0

    def test_literal_with_explicit_membership_compiles_fresh(
        self, paper_session
    ):
        paper_session.execute("CREATE CLASS Lucky")
        paper_session.store.add_instance(Value(30), "Lucky")
        paper_session.prepare(AGE_QUERY.format(20), plan="typed")
        compiled = paper_session.prepare(AGE_QUERY.format(30), plan="typed")
        counters = paper_session.metrics.counters
        assert "cache.rebind" not in counters
        assert counters["cache.miss"] == 3  # CREATE CLASS, 20, 30
        assert names(compiled.run()) == []
        # The entry stays the plain literal's: a literal with its
        # memberships still rebinds.
        rebound = paper_session.prepare(AGE_QUERY.format(5), plan="typed")
        assert counters["cache.rebind"] == 1
        assert names(rebound.run()) == ["ben", "john13", "kim"]

    def test_ddl_invalidates_a_shape_entry(self, paper_session):
        text = CITY_QUERY.format("austin")
        expected = make_paper_session().query(text, plan="typed").rows()
        paper_session.query(CITY_QUERY.format("newyork"), plan="typed")
        paper_session.execute("CREATE CLASS Starbase")
        assert paper_session.query(text, plan="typed").rows() == expected
        counters = paper_session.metrics.counters
        assert "cache.rebind" not in counters
        assert counters["cache.invalidated"] == 1
        # The fresh compile replaced the stale entry and now serves its
        # shape.
        paper_session.query(CITY_QUERY.format("newyork"), plan="typed")
        assert counters["cache.rebind"] == 1

    @pytest.mark.parametrize("plan", PLAN_MODES)
    def test_explain_of_rebound_statement_matches_fresh_compile(
        self, paper_session, plan
    ):
        """Byte-identical EXPLAIN text and JSON, before and after a run,
        against a session with the same history and no cache."""
        fresh_session = make_paper_session()
        fresh_session.pipeline.cache_size = 0
        text = CITY_QUERY.format("austin")
        for session in (paper_session, fresh_session):
            session.prepare(CITY_QUERY.format("newyork"), plan=plan).run()
        rebound = paper_session.prepare(text, plan=plan)
        fresh = fresh_session.prepare(text, plan=plan)
        assert paper_session.stats()["counters"]["cache.rebind"] == 1
        for _ in range(2):
            for fmt in ("text", "json"):
                assert rebound.explain(format=fmt) == fresh.explain(
                    format=fmt
                )
            assert rebound.run().rows() == fresh.run().rows()

    def test_replace_store_clears_cache(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        assert len(paper_session.pipeline) == 1
        image = store_image(paper_session.store)
        paper_session.replace_store(decode_store(image))
        assert len(paper_session.pipeline) == 0


@given(
    data=st.one_of(
        st.sampled_from(LITERAL_TEXTS),
        st.integers(0, 5_000),
    )
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_rebound_statement_equals_fresh_normalization(tiny_generator, data):
    """Over the difftest grammar, the paper's examples and every other
    statement kind: a text compiled by rebinding its literals into a
    same-shape sibling's compilation is the statement a fresh parse and
    normalization of the text gives."""
    session, generator = tiny_generator
    text = data if isinstance(data, str) else str(generator.generate(data))
    session.prepare(shape_sibling(text), plan="cost")
    before = session.stats()["counters"].get("cache.rebind", 0)
    compiled = session.prepare(text, plan="cost")
    expected = normalize_statement(parse_statement_raw(text))
    assert compiled.statement == expected, text
    assert str(compiled.statement) == str(expected), text
    if literal_values(expected):
        assert session.stats()["counters"]["cache.rebind"] == before + 1


class TestRemovedShims:
    """The deprecation shims are gone; the replacements are the API."""

    def test_optimize_kwarg_is_removed(self, paper_session):
        with pytest.raises(TypeError):
            paper_session.query(FAMILY_QUERY, optimize=True)
        # The replacement spelling works.
        result = paper_session.query(FAMILY_QUERY, plan="greedy")
        assert names(result) == ["john13", "kim"]

    def test_naive_method_is_removed(self, paper_session):
        assert not hasattr(paper_session, "naive")
        result = paper_session.query(
            "SELECT X FROM Vehicle X", engine="naive"
        )
        assert result.rows() == paper_session.query(
            "SELECT X FROM Vehicle X"
        ).rows()


class TestScriptSplitting:
    def test_semicolon_inside_string_literal(self, paper_session):
        results = paper_session.execute_script(
            "SELECT X FROM Person X WHERE X.Name['a;b']; "
            "SELECT X FROM Vehicle X;"
        )
        assert len(results) == 2
        assert len(results[0]) == 0
        assert len(results[1]) == 4

    def test_semicolon_inside_comment(self, paper_session):
        results = paper_session.execute_script(
            "SELECT X FROM Vehicle X  -- trailing; comment\n;"
            "SELECT X FROM Company X;"
        )
        assert len(results) == 2

    def test_update_with_semicolon_in_value(self, paper_session):
        from repro.oid import Atom, Value

        paper_session.execute_script(
            "UPDATE CLASS Division SET d_eng.Function = 'R;D';"
        )
        assert paper_session.store.invoke_scalar(
            Atom("d_eng"), "Function"
        ) == Value("R;D")

    def test_trailing_statement_without_semicolon(self, paper_session):
        results = paper_session.execute_script(
            "SELECT X FROM Vehicle X; SELECT X FROM Company X"
        )
        assert len(results) == 2


class TestStats:
    def test_stats_snapshot_shape(self, paper_session):
        paper_session.query(FAMILY_QUERY, plan="typed")
        stats = paper_session.stats()
        assert set(stats) == {"counters", "timers", "observations"}
        for stage in ("parse", "normalize", "analyze", "plan", "execute"):
            assert stats["timers"][stage]["count"] >= 1
        assert stats["observations"]["rows"]["count"] == 1
        assert stats["counters"]["statements"] == 1

    def test_statement_line_reports_stages(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        line = paper_session.metrics.statement_line()
        assert "parse=" in line and "execute=" in line
        assert "cache=miss" in line

    def test_summary_mentions_counters(self, paper_session):
        paper_session.query(FAMILY_QUERY)
        paper_session.query(FAMILY_QUERY)
        summary = paper_session.metrics.summary()
        assert "cache.hit" in summary
        assert "stage parse" in summary


class TestPercentileCurve:
    """The scale-keyed percentile curves the bench harness reports."""

    def test_curve_reads_off_one_statistic_per_key(self):
        from repro.metrics import PercentileCurve

        curve = PercentileCurve()
        for tier, values in (("1k", [1, 2, 3]), ("10k", [10, 20, 30])):
            for value in values:
                curve.observe(tier, value)
        assert curve.curve("p50") == [("1k", 2), ("10k", 20)]
        assert curve.curve("max") == [("1k", 3), ("10k", 30)]
        assert curve.curve("count") == [("1k", 3), ("10k", 3)]
        assert curve.curve("mean") == [("1k", 2.0), ("10k", 20.0)]

    def test_as_dict_keeps_key_order(self):
        from repro.metrics import PercentileCurve

        curve = PercentileCurve()
        curve.observe("10k", 5.0)
        curve.observe("1k", 1.0)
        dumped = curve.as_dict()
        assert list(dumped) == ["10k", "1k"]
        assert dumped["10k"]["p95"] == 5.0


class TestSessionMemory:
    def test_distinct_updates_keep_no_path_asts_alive(self, paper_session):
        """Live ``PathExpr`` nodes stay flat over 1,000 distinct UPDATEs.

        Only the bounded statement cache may keep parsed statements; a
        per-walker table keyed by AST would grow by one path per text.
        """
        import gc

        from repro.xsql import ast

        def live_paths():
            gc.collect()
            return sum(
                1 for obj in gc.get_objects() if isinstance(obj, ast.PathExpr)
            )

        def run(first, last):
            for salary in range(first, last):
                paper_session.execute(
                    f"UPDATE CLASS Employee SET ben.Salary = {salary}"
                )

        run(0, 200)  # fill the statement cache
        settled = live_paths()
        run(200, 1000)
        assert live_paths() <= settled + 16

    def test_memo_token_table_is_bounded(self, paper_session):
        """A write-free session interns at most ``memo_capacity`` memo
        tokens, and dropping the table changes no answer."""
        text = "SELECT X FROM Employee X WHERE X.Salary > {}"
        reference = make_paper_session()
        answered = paper_session.query(text.format(25000)).rows()
        (walker,) = paper_session._walkers.values()
        walker._memo_cache_cap = 50
        for n in range(3000):
            query = text.format(n * 110)
            assert paper_session.query(query).rows() == (
                reference.query(query).rows()
            )
            assert len(walker._memo_tokens) <= 50
        assert paper_session.query(text.format(25000)).rows() == answered
        assert walker._next_memo_token > 3000

    def test_reads_and_closed_snapshots_leave_little_cyclic_garbage(
        self, paper_session
    ):
        """Cyclic garbage waits for a full collection, which runs ever
        more rarely as the heap grows.  A read must leave none per path
        step, and a closed snapshot only its small session skeleton, not
        its statement cache, walker caches and record memos.
        """
        import gc

        query = "SELECT X.Name, X.Salary FROM Employee X WHERE X.Salary > 20000"
        paper_session.query(query)
        gc.collect()
        gc.disable()
        try:
            paper_session.query(query)
            after_read = gc.collect()
            snapshot = paper_session.snapshot_view()
            snapshot.query(query)
            snapshot.query("SELECT X FROM Person X WHERE X.Age > 20")
            after_snapshot_read = gc.collect()
            snapshot.close()
            del snapshot
            after_close = gc.collect()
        finally:
            gc.enable()
        assert after_read < 10
        assert after_snapshot_read < 10
        assert after_close < 100
