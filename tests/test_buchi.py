"""Temporal-formula automata, cross-checked against direct word semantics."""

import random

import pytest

from de_fixpoint.buchi import (
    LAnd,
    LAtom,
    LFalse,
    LRelease,
    LTrue,
    LUntil,
    ltl_to_buchi,
    nnf,
)
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
)
from de_fixpoint.formula_parser import parse_formula
from de_fixpoint.props import LocProp

import ltl_ref

P = LocProp(("M",), "a")
Q = LocProp(("M",), "b")
p = Atom(P)
q = Atom(Q)


# Negation normal form. --------------------------------------------------------


def test_nnf_pushes_negations_to_atoms():
    assert nnf(Not(Not(p))) == LAtom(P, True)
    assert nnf(Not(p)) == LAtom(P, False)
    assert nnf(Not(And(p, q))) == nnf(Or(Not(p), Not(q)))
    assert nnf(Not(TrueF())) == LFalse()


def test_nnf_rewrites_derived_operators():
    assert nnf(Eventually(p)) == LUntil(LTrue(), LAtom(P, True))
    assert nnf(Always(p)) == LRelease(LFalse(), LAtom(P, True))
    assert nnf(Not(Until(p, q))) == LRelease(LAtom(P, False), LAtom(Q, False))
    assert nnf(Implies(p, q)) == nnf(Or(Not(p), q))
    assert nnf(Not(Implies(p, q))) == LAnd(LAtom(P, True), LAtom(Q, False))


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
