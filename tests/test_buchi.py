"""Temporal-formula automata, cross-checked against direct word semantics."""

import hashlib
import random
import sys

import pytest

from de_fixpoint.buchi import Release, ltl_to_buchi, nnf
from de_fixpoint.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Implies,
    Not,
    Or,
    TrueF,
    Until,
    formula_text,
)
from de_fixpoint.formula_parser import parse_formula
from de_fixpoint.props import LocProp

import ltl_ref
from conftest import stack_depth

P = LocProp(("M",), "a")
Q = LocProp(("M",), "b")
p = Atom(P)
q = Atom(Q)


# Negation normal form. --------------------------------------------------------


def test_nnf_pushes_negations_to_atoms():
    assert nnf(Not(Not(p))) == p
    assert nnf(Not(p)) == Not(p)
    assert nnf(Not(And(p, q))) == nnf(Or(Not(p), Not(q)))
    assert nnf(Not(TrueF())) == FalseF()


def test_nnf_rewrites_derived_operators():
    assert nnf(Eventually(p)) == Until(TrueF(), p)
    assert nnf(Always(p)) == Release(FalseF(), p)
    assert nnf(Not(Until(p, q))) == Release(Not(p), Not(q))
    assert nnf(Implies(p, q)) == nnf(Or(Not(p), q))
    assert nnf(Not(Implies(p, q))) == And(p, Not(q))


# Degenerate automata. -----------------------------------------------------------


def word(*positions, loop=0):
    return [dict(v) for v in positions], loop


def all_words(max_prefix=2, max_cycle=3, seed=5, count=60):
    rng = random.Random(seed)
    vals = [
        {P: a, Q: b} for a in (False, True) for b in (False, True)
    ]
    out = []
    for _ in range(count):
        prefix = rng.randrange(max_prefix + 1)
        cycle = rng.randrange(1, max_cycle + 1)
        positions = [rng.choice(vals) for _ in range(prefix + cycle)]
        out.append((positions, prefix))
    return out


def test_true_accepts_everything():
    ba = ltl_to_buchi(TrueF())
    for positions, loop in all_words(count=10):
        assert ltl_ref.buchi_accepts(ba, positions, loop)


def test_false_accepts_nothing():
    ba = ltl_to_buchi(FalseF())
    for positions, loop in all_words(count=10):
        assert not ltl_ref.buchi_accepts(ba, positions, loop)


@pytest.mark.parametrize("text", ["<> True", "[] <> True", "'M @ 'a U True", "~ <> [] False"])
def test_an_until_of_true_is_met_at_once(text):
    # The tableau keeps no true among a node's obligations, so an until
    # whose right side is true must count as met where it is owed: under
    # an always it is owed at every step, and no run would be fair.
    ba = ltl_to_buchi(parse_formula(text))
    for positions, loop in all_words(count=10):
        assert ltl_ref.buchi_accepts(ba, positions, loop), (positions, loop)


def test_atom_constrains_only_the_first_position():
    ba = ltl_to_buchi(p)
    yes, loop = word({P: True, Q: False}, {P: False, Q: False}, loop=1)
    no, _ = word({P: False, Q: False}, {P: True, Q: True}, loop=1)
    assert ltl_ref.buchi_accepts(ba, yes, loop)
    assert not ltl_ref.buchi_accepts(ba, no, loop)


# Word-level agreement with the direct semantics. --------------------------------


FORMULAS = [
    "'M @ 'a",
    "~ 'M @ 'a",
    "'M @ 'a /\\ 'M @ 'b",
    "'M @ 'a \\/ 'M @ 'b",
    "'M @ 'a -> 'M @ 'b",
    "[] 'M @ 'a",
    "<> 'M @ 'a",
    "'M @ 'a U 'M @ 'b",
    "~ ('M @ 'a U 'M @ 'b)",
    "[] <> 'M @ 'a",
    "<> [] 'M @ 'a",
    "[] ('M @ 'a -> <> 'M @ 'b)",
    "('M @ 'a U 'M @ 'b) U 'M @ 'a",
    "'M @ 'a U ('M @ 'b U 'M @ 'a)",
    "[] ('M @ 'a -> 'M @ 'b) -> ([] 'M @ 'a -> [] 'M @ 'b)",
    "<> 'M @ 'a /\\ <> ~ 'M @ 'a",
    "[] ('M @ 'a \\/ 'M @ 'b)",
    "~ [] <> 'M @ 'b",
]


@pytest.mark.parametrize("text", FORMULAS)
def test_automaton_language_matches_word_semantics(text):
    formula = parse_formula(text)
    ba = ltl_to_buchi(formula)
    for positions, loop in all_words():
        expected = ltl_ref.eval_word(positions, loop, formula)
        accepted = ltl_ref.buchi_accepts(ba, positions, loop)
        assert accepted == expected, (text, positions, loop)


def test_exhaustive_short_lassos_for_until():
    formula = parse_formula("'M @ 'a U 'M @ 'b")
    ba = ltl_to_buchi(formula)
    vals = [{P: a, Q: b} for a in (False, True) for b in (False, True)]
    for v0 in vals:
        for v1 in vals:
            for loop in (0, 1):
                positions = [v0, v1]
                expected = ltl_ref.eval_word(positions, loop, formula)
                assert ltl_ref.buchi_accepts(ba, positions, loop) == expected


# Reproducibility. ----------------------------------------------------------------


@pytest.mark.parametrize("text", FORMULAS[:8])
def test_construction_is_deterministic(text):
    one = ltl_to_buchi(parse_formula(text))
    two = ltl_to_buchi(parse_formula(text))
    assert one.states == two.states
    assert one.initial == two.initial
    assert one.accepting == two.accepting
    assert one.guards == two.guards
    assert one.successors == two.successors


def test_automaton_shape_is_well_formed():
    ba = ltl_to_buchi(parse_formula("[] <> 'M @ 'a"))
    assert ba.states == tuple(range(len(ba.states)))
    for sid in ba.states:
        assert all(t in ba.states for t in ba.successors[sid])
    assert set(ba.initial) <= set(ba.states)
    assert ba.accepting <= set(ba.states)
    assert {prop for sid in ba.states for prop, _ in ba.guards[sid]} == {P}


# Byte-exact pin and stack use. ----------------------------------------------------


def nested_until(depth):
    """``'M @ 'a0 U ('M @ 'a1 U ... 'M @ 'a<depth>)``."""
    return " U (".join(f"'M @ 'a{i}" for i in range(depth + 1)) + ")" * depth


def automaton_text(ba) -> str:
    lines = [f"initial {ba.initial} accepting {sorted(ba.accepting)}"]
    lines += [f"{sid} {ba.guards[sid]} -> {ba.successors[sid]}" for sid in ba.states]
    return "\n".join(lines) + "\n"


# Every formula above and its negation (the checker translates negations),
# then nested until and always, which grow the tableau fastest.
PINNED = (
    FORMULAS
    + [nested_until(d) for d in range(1, 8)]
    + ["[] " * d + "'M @ 'a" for d in range(1, 8)]
)
AUTOMATA = "d81df7cc1c4bcba114fe62ef88578957a8c45849ea4a443e4bd2a02ebd2c9e02"


def test_automata_are_pinned():
    text = []
    for source in PINNED:
        formula = parse_formula(source)
        for f in (formula, Not(formula)):
            text.append(f"{formula_text(f)}\n{automaton_text(ltl_to_buchi(f))}")
    assert hashlib.sha256("".join(text).encode("utf-8")).hexdigest() == AUTOMATA


def test_tableau_runs_in_a_small_stack():
    # The tableau has hundreds of nodes here; expanding them must not take
    # a Python frame each.
    formula = Not(parse_formula(nested_until(6)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        ba = ltl_to_buchi(formula)
    finally:
        sys.setrecursionlimit(limit)
    assert len(ba.states) == 127
