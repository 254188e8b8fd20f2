"""Tests for logical object ids and id-terms (paper §2, §4.2)."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oid import (
    NIL,
    Atom,
    FuncOid,
    Value,
    Variable,
    VarSort,
    is_ground,
    oid,
    substitute,
    term_sort_key,
    variables_of,
)


class TestAtoms:
    def test_equality_by_name(self):
        assert Atom("mary123") == Atom("mary123")
        assert Atom("mary123") != Atom("john13")

    def test_str(self):
        assert str(Atom("secretary")) == "secretary"

    def test_hashable(self):
        assert len({Atom("a"), Atom("a"), Atom("b")}) == 2

    def test_same_payload_in_another_class_is_unequal(self):
        assert Atom("x") != Value("x")
        assert Variable("X") != Atom("X")
        assert Atom("x") not in {Value("x"): 1}

    def test_attribute_assignment_raises(self):
        with pytest.raises(AttributeError):
            Atom("a").name = "b"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            Atom("a").extra = 1  # type: ignore[attr-defined]

    def test_no_instance_dict(self):
        assert not hasattr(Atom("a"), "__dict__")


class TestValues:
    def test_numeric_literal(self):
        assert str(Value(20)) == "20"

    def test_string_literal_quoted(self):
        assert str(Value("Ford Motor Co.")) == "'Ford Motor Co.'"

    def test_string_and_atom_are_distinct_objects(self):
        # 'Ford' (a string object) is not the symbolic oid Ford.
        assert Value("Ford") != Atom("Ford")

    def test_rejects_non_scalar_payload(self):
        with pytest.raises(TypeError):
            Value([1, 2])  # type: ignore[arg-type]

    def test_bool_payload_allowed(self):
        assert Value(True).value is True

    def test_boolean_is_not_the_number(self):
        assert Value(True) != Value(1) and Value(False) != Value(0)
        assert len({Value(True), Value(1)}) == 2
        assert Value(1) == Value(1.0) and hash(Value(1)) == hash(Value(1.0))

    def test_rejects_other_non_scalars(self):
        for payload in (None, (1,), {"a": 1}, Atom("a")):
            with pytest.raises(TypeError):
                Value(payload)  # type: ignore[arg-type]

    def test_attribute_assignment_raises(self):
        with pytest.raises(AttributeError):
            Value(1).value = 2  # type: ignore[misc]


class TestFuncOids:
    def test_id_function_application(self):
        term = FuncOid("secretary", (Atom("dept77"),))
        assert str(term) == "secretary(dept77)"

    def test_nested(self):
        inner = FuncOid("f", (Value(1),))
        outer = FuncOid("g", (inner, Atom("a")))
        assert str(outer) == "g(f(1), a)"

    def test_equality_is_structural(self):
        a = FuncOid("f", (Atom("x"), Value(2)))
        b = FuncOid("f", (Atom("x"), Value(2)))
        assert a == b and hash(a) == hash(b)

    def test_rejects_variable_arguments(self):
        with pytest.raises(TypeError):
            FuncOid("f", (Variable("X"),))  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            FuncOid("f", (Atom("a"), "raw"))  # type: ignore[arg-type]

    def test_attribute_assignment_raises(self):
        term = FuncOid("f", (Atom("a"),))
        with pytest.raises(AttributeError):
            term.args = ()  # type: ignore[misc]


class TestVariables:
    def test_sorts_render_with_paper_prefixes(self):
        assert str(Variable("X")) == "X"
        assert str(Variable("X", VarSort.CLASS)) == "#X"
        assert str(Variable("Y", VarSort.METHOD)) == '"Y'
        assert str(Variable("Y", VarSort.PATH)) == "*Y"

    def test_same_name_different_sort_distinct(self):
        assert Variable("X") != Variable("X", VarSort.CLASS)
        assert Variable("X", VarSort.CLASS) != Atom("X")

    def test_default_sort_is_individual(self):
        assert Variable("X") == Variable("X", VarSort.INDIVIDUAL)
        assert Variable("X").sort is VarSort.INDIVIDUAL

    def test_sort_lookup_by_value(self):
        assert VarSort("class") is VarSort.CLASS
        assert VarSort.PATH.value == "path"
        assert repr(Variable("Y", VarSort("method"))) == "Variable('Y', method)"

    def test_attribute_assignment_raises(self):
        with pytest.raises(AttributeError):
            Variable("X").sort = VarSort.CLASS  # type: ignore[misc]


TERMS = [
    Atom("mary123"),
    Value(20),
    Value(2.5),
    Value("it's"),
    Value(True),
    FuncOid("f", (Atom("a"), FuncOid("g", (Value(1),)))),
    Variable("X"),
    Variable("P", VarSort.PATH),
]


class TestCopyAndPickle:
    @pytest.mark.parametrize("term", TERMS, ids=repr)
    @pytest.mark.parametrize(
        "clone",
        [
            lambda t: pickle.loads(pickle.dumps(t)),
            lambda t: pickle.loads(pickle.dumps(t, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy"],
    )
    def test_roundtrip_keeps_type_equality_and_hash(self, term, clone):
        twin = clone(term)
        assert type(twin) is type(term)
        assert twin == term and hash(twin) == hash(term)
        assert repr(twin) == repr(term)


class TestHelpers:
    def test_oid_coercion(self):
        assert oid(20) == Value(20)
        assert oid("newyork") == Value("newyork")
        assert oid(Atom("a")) == Atom("a")

    def test_is_ground(self):
        assert is_ground(Atom("a"))
        assert is_ground(NIL)
        assert not is_ground(Variable("X"))

    def test_substitute(self):
        var = Variable("X")
        assert substitute(var, {var: Atom("a")}) == Atom("a")
        assert substitute(var, {}) == var
        assert substitute(Atom("b"), {var: Atom("a")}) == Atom("b")

    def test_variables_of(self):
        assert list(variables_of(Variable("X"))) == [Variable("X")]
        assert list(variables_of(Atom("a"))) == []


class TestSortKey:
    def test_values_before_atoms_before_funcs(self):
        ordered = sorted(
            [FuncOid("f", ()), Atom("a"), Value(1)], key=term_sort_key
        )
        assert ordered == [Value(1), Atom("a"), FuncOid("f", ())]

    def test_numbers_before_strings(self):
        assert term_sort_key(Value(99)) < term_sort_key(Value("a"))

    @given(st.integers(), st.integers())
    def test_numeric_order_matches_python(self, a, b):
        ka, kb = term_sort_key(Value(a)), term_sort_key(Value(b))
        assert (ka < kb) == (a < b)

    @given(st.text(max_size=10), st.text(max_size=10))
    def test_atom_order_matches_name_order(self, a, b):
        ka, kb = term_sort_key(Atom(a)), term_sort_key(Atom(b))
        assert (ka < kb) == (a < b)

    @given(
        st.lists(
            st.one_of(
                st.integers().map(Value),
                st.text(max_size=6).map(Atom),
                st.text(max_size=6).map(Value),
            ),
            max_size=20,
        )
    )
    def test_total_order_is_stable(self, terms):
        once = sorted(terms, key=term_sort_key)
        twice = sorted(once, key=term_sort_key)
        assert once == twice
