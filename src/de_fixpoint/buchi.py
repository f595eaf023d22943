"""Translation of temporal formulas into Büchi automata.

The classic node-expansion tableau (Gerth, Peled, Vardi & Wolper, PSTV
1995): rewrite the formula into negation normal form, expand it into a
graph of obligation sets, read off a generalized Büchi automaton with
one fairness set per until subformula, and finally degeneralize with a
counter so the emptiness check only needs a single accepting set.

Negation normal form is built from the formula classes themselves:
negations sit only on atoms, and until/release duality removes them
from everything else.  ``Release`` is the one class added for it.  The
tableau is expanded from an explicit stack, so its depth costs no
Python frames.

States carry their literal constraints (proposition, expected truth);
an execution step may enter a state exactly when the new system state
satisfies all of them.  Everything is built with insertion-ordered
containers so the produced automaton (state numbering included) is
reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import StateSpaceExceeded
from .formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Implies,
    Not,
    Or,
    Scope,
    TrueF,
    Until,
    desugar,
    formula_class,
)

# Negation normal form. -------------------------------------------------------


@formula_class
class Release(Formula):
    """``left R right``, the dual of until.

    ``right`` holds up to and including the first point where ``left``
    holds, or forever if ``left`` never does.  Only negation normal form
    uses it; the formula language has no release connective.
    """

    left: Formula
    right: Formula


def nnf(f: Formula, negated: bool = False) -> Formula:
    """``f`` (negated if asked) with every negation on an atom.

    The result is built from atoms, negated atoms, true, false, and,
    or, until and ``Release``.
    """
    if isinstance(f, Scope):
        raise TypeError("scopes must be desugared before translation")
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, TrueF):
        return FalseF() if negated else f
    if isinstance(f, FalseF):
        return TrueF() if negated else f
    if isinstance(f, Not):
        return nnf(f.operand, not negated)
    if isinstance(f, And):
        cls = Or if negated else And
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Or):
        cls = And if negated else Or
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Implies):
        if negated:  # ~(a -> b) == a /\ ~b
            return And(nnf(f.left, False), nnf(f.right, True))
        return Or(nnf(f.left, True), nnf(f.right, False))
    if isinstance(f, Until):
        cls = Release if negated else Until
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Always):  # [] g == false R g
        if negated:
            return Until(TrueF(), nnf(f.operand, True))
        return Release(FalseF(), nnf(f.operand, False))
    if isinstance(f, Eventually):  # <> g == true U g
        if negated:
            return Release(FalseF(), nnf(f.operand, True))
        return Until(TrueF(), nnf(f.operand, False))
    raise TypeError(f"not a formula: {f!r}")


def _until_subformulas(g, acc):
    """``acc``, a dict used as an ordered set, with every until in ``g``
    added in first-appearance order."""
    if isinstance(g, Until):
        acc.setdefault(g)
    if isinstance(g, (And, Or, Until, Release)):
        _until_subformulas(g.left, acc)
        _until_subformulas(g.right, acc)
    return acc


# Tableau expansion. ----------------------------------------------------------


class _Node:
    __slots__ = ("nid", "incoming", "new", "old", "next")

    def __init__(self, nid, incoming, new, old, nxt):
        self.nid = nid
        self.incoming = dict.fromkeys(incoming)  # ordered set of node ids
        self.new = dict.fromkeys(new)  # ordered sets of formulas
        self.old = dict.fromkeys(old)
        self.next = dict.fromkeys(nxt)


_INIT = -1  # virtual predecessor marking initial states
#: Nodes a tableau may create, and states its degeneralized automaton may have.
MAX_TABLEAU_NODES = 100_000


def _tableau(formula_nnf):
    """The finished tableau nodes of an NNF formula, in the order they finished.

    Depth first from a seed node: the top of ``stack`` is the node being
    expanded.  A split pushes its copy, so the node resumes once the copy
    is done; a finished node is replaced by its successor, or dropped when
    a node with the same ``old`` and ``next`` sets exists (its incoming
    edges go to that twin).

    The tableau can grow exponentially in the formula, so creating more
    than ``MAX_TABLEAU_NODES`` nodes raises ``StateSpaceExceeded``.
    """
    counter = itertools.count(1)  # 0 is the seed

    def fresh(incoming, new, old, nxt):
        nid = next(counter)
        if nid > MAX_TABLEAU_NODES:
            raise StateSpaceExceeded(MAX_TABLEAU_NODES, "tableau nodes")
        return _Node(nid, incoming, new, old, nxt)

    nodes = {}  # (old, next) -> finished node
    stack = [_Node(0, [_INIT], [formula_nnf], [], [])]
    while stack:
        node = stack[-1]
        if not node.new:
            key = (frozenset(node.old), frozenset(node.next))
            twin = nodes.get(key)
            if twin is not None:
                twin.incoming.update(node.incoming)
                stack.pop()
            else:
                nodes[key] = node
                stack[-1] = fresh([node.nid], list(node.next), [], [])
            continue
        f = next(iter(node.new))
        del node.new[f]
        if f in node.old or isinstance(f, TrueF):
            continue
        if isinstance(f, FalseF):
            stack.pop()  # contradiction: drop this node
            continue
        if isinstance(f, (Atom, Not)):
            # A literal clashing with one already assumed kills the node.
            if (f.operand if isinstance(f, Not) else Not(f)) in node.old:
                stack.pop()
            else:
                node.old[f] = None
            continue
        if isinstance(f, And):
            node.old[f] = None
            for g in (f.left, f.right):
                if g not in node.old:
                    node.new[g] = None
            continue
        # The splitting cases: try one obligation set, then the other.
        if isinstance(f, Or):
            first, second, extra_next = [f.left], [f.right], []
        elif isinstance(f, Until):
            first, second, extra_next = [f.left], [f.right], [f]
        elif isinstance(f, Release):
            first, second, extra_next = [f.right], [f.left, f.right], [f]
        else:
            raise TypeError(f"unexpected formula in tableau: {f!r}")
        copy = fresh(
            list(node.incoming),
            list(node.new) + [g for g in second if g not in node.old],
            list(node.old) + [f],
            list(node.next),
        )
        node.old[f] = None
        for g in first:
            if g not in node.old:
                node.new[g] = None
        for g in extra_next:
            node.next[g] = None
        stack.append(copy)
    return list(nodes.values())


# The automaton. --------------------------------------------------------------


@dataclass(frozen=True)
class BuchiAutomaton:
    """State-labeled Büchi automaton (guards sit on the states).

    A run enters a state only when the current point of the execution
    satisfies every (proposition, expected) literal of that state; it is
    accepting when it visits ``accepting`` infinitely often.
    """

    states: tuple  # state ids, dense from 0
    initial: tuple
    accepting: frozenset
    guards: dict  # id -> ((prop, expected: bool), ...)
    successors: dict  # id -> (id, ...)

    def guard_holds(self, sid, valuation) -> bool:
        """valuation: mapping proposition -> bool."""
        return all(valuation[prop] is expected for prop, expected in self.guards[sid])


def ltl_to_buchi(f: Formula) -> BuchiAutomaton:
    """The automaton of ``f``: one state per reached (tableau node, fairness set).

    More than ``MAX_TABLEAU_NODES`` states raise ``StateSpaceExceeded``,
    as more tableau nodes do: a tableau under its bound can still have
    many nodes, each waiting on many fairness sets.
    """
    g = nnf(desugar(f))
    nodes = _tableau(g)
    untils = list(_until_subformulas(g, {}))

    by_id = {n.nid: n for n in nodes}
    edges = {n.nid: [] for n in nodes}
    lgba_initial = []
    for n in nodes:
        for pred in n.incoming:
            if pred == _INIT:
                lgba_initial.append(n.nid)
            else:
                edges[pred].append(n.nid)

    # Generalized acceptance: one set per until; a node is fair for
    # (a U b) when it satisfies b or no longer owes (a U b).  The tableau
    # keeps no true in ``old``: every node satisfies it.
    def fair(node, level):
        if not untils:
            return True
        u = untils[level]
        return isinstance(u.right, TrueF) or u.right in node.old or u not in node.old

    # Counter degeneralization: a state is a node and the fairness set it
    # waits on, and it is accepting when it meets set 0.
    k = max(1, len(untils))
    states = []  # (node id, level), numbered in order of first reach
    ids = {}
    guards = {}

    def intern(nid, level):
        key = (nid, level)
        if key not in ids:
            if len(states) == MAX_TABLEAU_NODES:
                raise StateSpaceExceeded(MAX_TABLEAU_NODES, "automaton states")
            ids[key] = len(states)
            states.append(key)
            guards[ids[key]] = tuple(
                sorted(
                    (
                        (f.prop, True) if isinstance(f, Atom) else (f.operand.prop, False)
                        for f in by_id[nid].old
                        if isinstance(f, (Atom, Not))
                    ),
                    key=lambda lit: (repr(lit[0]), lit[1]),
                )
            )
        return ids[key]

    initial = tuple(intern(nid, 0) for nid in lgba_initial)
    successors = {}
    accepting = set()
    # Breadth first: interning a new successor appends it to ``states``.
    for sid, (nid, level) in enumerate(states):
        met = fair(by_id[nid], level)
        if met and level == 0:
            accepting.add(sid)
        nxt = (level + 1) % k if met else level
        successors[sid] = tuple(intern(t, nxt) for t in edges[nid])

    return BuchiAutomaton(
        states=tuple(range(len(states))),
        initial=initial,
        accepting=frozenset(accepting),
        guards=guards,
        successors=successors,
    )
