"""Formula syntax: precedence, proposition forms, and printing round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from de_fixpoint.errors import ParseError
from de_fixpoint.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Implies,
    Not,
    Or,
    Scope,
    TrueF,
    Until,
    collect_atoms,
    desugar,
    formula_text,
)
from de_fixpoint.formula_parser import parse_formula, parse_prop
from de_fixpoint.props import LocProp, VarProp
from de_fixpoint.values import BoolVal, IntVal, StringVal, TimeVal


def loc(*path_and_loc):
    *path, location = path_and_loc
    return Atom(LocProp(tuple(path), location))


def var(path, **assigns):
    return Atom(VarProp(path, tuple(assigns.items())))


A = loc("A", "a")
B = loc("B", "b")
C = loc("C", "c")


def test_location_proposition():
    assert parse_formula("'M @ 'idle") == loc("M", "idle")
    assert parse_formula("'Top . 'Sub . 'M @ 'run") == loc("Top", "Sub", "M", "run")


def test_variable_proposition_forms():
    assert parse_formula("'T | ('x = 1)") == var(("T",), x=IntVal(1))
    assert parse_formula("'T | 'x = 1") == var(("T",), x=IntVal(1))
    both = parse_formula("'T | ('x = 1, 'y = 2)")
    assert both == var(("T",), x=IntVal(1), y=IntVal(2))


def test_values_accept_optional_hash_and_kinds():
    assert parse_formula("'T | 'x = # 1") == parse_formula("'T | 'x = 1")
    assert parse_formula("'T | 'x = -2") == var(("T",), x=IntVal(-2))
    assert parse_formula("'T | 'x = 1.5") == var(("T",), x=TimeVal(Fraction(3, 2)))
    assert parse_formula("'T | 'x = 1/3") == var(("T",), x=TimeVal(Fraction(1, 3)))
    assert parse_formula("'T | 'x = True") == var(("T",), x=BoolVal(True))
    assert parse_formula('\'T | \'x = "go"') == var(("T",), x=StringVal("go"))


def test_constants_and_unary_operators():
    assert parse_formula("True") == TrueF()
    assert parse_formula("False") == FalseF()
    assert parse_formula("~ 'A @ 'a") == Not(A)
    assert parse_formula("[] 'A @ 'a") == Always(A)
    assert parse_formula("<> 'A @ 'a") == Eventually(A)
    assert parse_formula("[]<> 'A @ 'a") == Always(Eventually(A))


def test_precedence_ladder():
    f = parse_formula("'A @ 'a \\/ 'B @ 'b /\\ 'C @ 'c")
    assert f == Or(A, And(B, C))
    f = parse_formula("'A @ 'a -> 'B @ 'b \\/ 'C @ 'c")
    assert f == Implies(A, Or(B, C))
    f = parse_formula("'A @ 'a /\\ 'B @ 'b U 'C @ 'c")
    assert f == And(A, Until(B, C))
    f = parse_formula("~ 'A @ 'a U 'B @ 'b")
    assert f == Until(Not(A), B)


def test_implication_is_right_associative():
    f = parse_formula("'A @ 'a -> 'B @ 'b -> 'C @ 'c")
    assert f == Implies(A, Implies(B, C))


def test_until_is_left_associative():
    f = parse_formula("'A @ 'a U 'B @ 'b U 'C @ 'c")
    assert f == Until(Until(A, B), C)


def test_parentheses_override():
    f = parse_formula("('A @ 'a \\/ 'B @ 'b) /\\ 'C @ 'c")
    assert f == And(Or(A, B), C)


def test_scope_re_roots_propositions():
    f = parse_formula("'Top : ([] ('M @ 'idle -> 'M | 'ok = True))")
    assert isinstance(f, Scope) and f.path == ("Top",)
    flat = desugar(f)
    assert flat == Always(
        Implies(loc("Top", "M", "idle"), var(("Top", "M"), ok=BoolVal(True)))
    )


def test_nested_scopes_accumulate():
    f = parse_formula("'A : ('B : 'M @ 'x)")
    assert desugar(f) == loc("A", "B", "M", "x")


def test_scoped_path_form():
    f = parse_formula("'A . 'B : 'M @ 'x")
    assert desugar(f) == loc("A", "B", "M", "x")


def test_collect_atoms_deduplicates():
    f = desugar(parse_formula("[] ('M @ 'a -> <> 'M @ 'a)"))
    assert collect_atoms(f) == (LocProp(("M",), "a"),)


def test_formula_text_round_trips():
    samples = [
        "'A @ 'a",
        "'T | 'x = 1",
        "'T | ('x = 1, 'y = True)",
        "~ ('A @ 'a /\\ 'B @ 'b)",
        "[] <> ('A @ 'a \\/ ~ 'B @ 'b)",
        "('A @ 'a U 'B @ 'b) U 'C @ 'c",
        "'A @ 'a -> 'B @ 'b -> 'C @ 'c",
        "'Top : ([] ('M @ 'idle -> 'M | 'ok = True))",
        "True U 'A @ 'a",
        "False",
    ]
    for text in samples:
        f = parse_formula(text)
        assert parse_formula(formula_text(f)) == f, text


def test_formula_text_mirrors_value_spelling():
    f = parse_formula("'T | ('b = False, 't = 0.5, 's = \"hi\")")
    assert parse_formula(formula_text(f)) == f
    assert "False" in formula_text(f)
    assert "0.5" in formula_text(f)


def test_parse_prop_accepts_bare_propositions_only():
    assert parse_prop("'M @ 'idle") == LocProp(("M",), "idle")
    assert parse_prop("'T | 'x = 1") == VarProp(("T",), (("x", IntVal(1)),))
    with pytest.raises(ParseError):
        parse_prop("~ 'M @ 'idle")
    with pytest.raises(ParseError):
        parse_prop("'M @ 'idle /\\ 'M @ 'idle")
    with pytest.raises(ParseError):
        parse_prop("'A : 'M @ 'idle")


def err_of(text):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    return str(err.value)


def test_error_positions_and_messages():
    assert err_of("").startswith("1:")
    assert "expected a formula" in err_of("M @ 'idle")  # names need quoting
    assert err_of("'A @ 'a /\\") is not None
    assert err_of("'A @") is not None
    assert err_of("'T | 'x = ") is not None
    assert err_of("('A @ 'a") is not None
    assert err_of("'T | 'x = -0.5") is not None  # negative time has no meaning
    assert err_of("'T | 's = \"open") == "1:11: unterminated string"


def test_trailing_input_rejected():
    assert err_of("'A @ 'a 'B @ 'b") is not None


# Round trips over generated formulas. ------------------------------------------

PATHS = st.lists(st.sampled_from(["A", "Top", "m_1", "U"]), min_size=1, max_size=3).map(tuple)
VALUES = st.one_of(
    st.integers(-1000, 1000).map(IntVal),
    st.fractions(0, 1000, max_denominator=40).map(TimeVal),
    st.booleans().map(BoolVal),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).map(StringVal),
)
ATOMS = st.one_of(
    st.builds(LocProp, PATHS, st.sampled_from(["idle", "True", "x"])).map(Atom),
    st.builds(
        VarProp, PATHS, st.lists(st.tuples(st.sampled_from(["x", "y"]), VALUES), min_size=1, max_size=3)
    ).map(Atom),
)
FORMULAS = st.recursive(
    st.one_of(ATOMS, st.just(TrueF()), st.just(FalseF())),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from([Not, Always, Eventually]), inner).map(lambda t: t[0](t[1])),
        st.tuples(st.sampled_from([And, Or, Implies, Until]), inner, inner).map(
            lambda t: t[0](t[1], t[2])
        ),
        st.builds(Scope, PATHS, inner),
    ),
    max_leaves=10,
)


@given(FORMULAS)
def test_generated_formulas_round_trip(f):
    assert parse_formula(formula_text(f)) == f
