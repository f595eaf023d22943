"""Linear temporal formulas over state propositions.

The surface syntax offers negation, conjunction, disjunction,
implication, until, always, and eventually, plus a scoping form
``'Actor : f`` that re-roots every proposition inside ``f`` under that
actor (purely syntactic sugar; desugaring produces a scope-free
formula).  Model checking itself works on the desugared form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .props import LocProp, VarProp
from .util import hash_once


class Formula:
    __slots__ = ()


def formula_class(cls):
    """Declare a connective: a frozen dataclass that hashes each node once,
    rather than its whole subtree on every set, dict or frozenset use."""
    return hash_once(dataclass(frozen=True)(cls))


# The connectives below have no next operator, so every formula is
# stutter-invariant: it has the same truth on a word with each run of
# equal letters cut to one letter.  The checker relies on that to decide
# verdicts on the stutter-compressed lasso; a next operator would void
# the compression.


@formula_class
class Atom(Formula):
    prop: object  # VarProp | LocProp


@formula_class
class TrueF(Formula):
    pass


@formula_class
class FalseF(Formula):
    pass


@formula_class
class Not(Formula):
    operand: Formula


@formula_class
class And(Formula):
    left: Formula
    right: Formula


@formula_class
class Or(Formula):
    left: Formula
    right: Formula


@formula_class
class Implies(Formula):
    left: Formula
    right: Formula


@formula_class
class Until(Formula):
    left: Formula
    right: Formula


@formula_class
class Always(Formula):
    operand: Formula


@formula_class
class Eventually(Formula):
    operand: Formula


@formula_class
class Scope(Formula):
    """Evaluate the body with every proposition path prefixed by ``path``."""

    path: tuple
    body: Formula

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))


def desugar(f: Formula, prefix=()) -> Formula:
    """Remove Scope nodes by pushing their paths into the propositions."""
    prefix = tuple(prefix)
    if isinstance(f, Atom):
        if not prefix:
            return f
        prop = f.prop
        if isinstance(prop, VarProp):
            return Atom(VarProp(prefix + prop.actor, prop.assignments))
        return Atom(LocProp(prefix + prop.actor, prop.location))
    if isinstance(f, (TrueF, FalseF)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.operand, prefix))
    if isinstance(f, (And, Or, Implies, Until)):
        cls = type(f)
        return cls(desugar(f.left, prefix), desugar(f.right, prefix))
    if isinstance(f, Always):
        return Always(desugar(f.operand, prefix))
    if isinstance(f, Eventually):
        return Eventually(desugar(f.operand, prefix))
    if isinstance(f, Scope):
        return desugar(f.body, prefix + f.path)
    raise TypeError(f"not a formula: {f!r}")


def collect_atoms(f: Formula):
    """Every distinct proposition in the formula, in first-appearance order."""
    seen = []
    def walk(g):
        if isinstance(g, Atom):
            if g.prop not in seen:
                seen.append(g.prop)
        elif isinstance(g, (Not, Always, Eventually)):
            walk(g.operand)
        elif isinstance(g, (And, Or, Implies, Until)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Scope):
            walk(g.body)
    walk(f)
    return tuple(seen)


# Canonical printing (used by the dump command and by error messages). -------

#: Binary connectives: symbol, precedence (loosest first) and whether
#: they group to the right.  The formula parser reads this table too.
_BINARY = {
    Implies: ("->", 1, True),
    Or: ("\\/", 2, False),
    And: ("/\\", 3, False),
    Until: ("U", 4, False),
}
#: Prefix connectives, binding tighter than every binary one.
_PREFIX = {Not: "~", Always: "[]", Eventually: "<>"}
_PREFIX_PREC = 5


def formula_text(f: Formula, parent: int = 0) -> str:
    if isinstance(f, Atom):
        return repr(f.prop)
    if isinstance(f, TrueF):
        return "True"
    if isinstance(f, FalseF):
        return "False"
    if isinstance(f, Scope):
        path = " . ".join(f"'{n}" for n in f.path)
        return f"{path} : ({formula_text(f.body)})"
    if type(f) in _PREFIX:
        return f"{_PREFIX[type(f)]} {formula_text(f.operand, _PREFIX_PREC)}"
    if type(f) not in _BINARY:
        raise TypeError(f"not a formula: {f!r}")
    symbol, prec, right = _BINARY[type(f)]
    # The operand on the grouping side takes equal precedence bare.
    left = formula_text(f.left, prec + 1 if right else prec)
    text = f"{left} {symbol} {formula_text(f.right, prec if right else prec + 1)}"
    if prec < parent:
        return f"({text})"
    return text
