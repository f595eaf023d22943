"""Translation of temporal formulas into Büchi automata.

The classic node-expansion tableau: rewrite the formula into negation
normal form (negations pushed onto propositions, using until/release
duality), expand it into a graph of obligation sets, read off a
generalized Büchi automaton with one fairness set per until subformula,
and finally degeneralize with a counter so the emptiness check only
needs a single accepting set.

States carry their literal constraints (proposition, expected truth);
an execution step may enter a state exactly when the new system state
satisfies all of them.  Everything is built with insertion-ordered
containers so the produced automaton (state numbering included) is
reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)

# Negation normal form. -------------------------------------------------------


@dataclass(frozen=True)
class LTrue:
    def key(self):
        return "1"


@dataclass(frozen=True)
class LFalse:
    def key(self):
        return "0"


@dataclass(frozen=True)
class LAtom:
    prop: object
    positive: bool

    def key(self):
        return ("" if self.positive else "!") + repr(self.prop)


@dataclass(frozen=True)
class LAnd:
    left: object
    right: object

    def key(self):
        return f"({self.left.key()})&({self.right.key()})"


@dataclass(frozen=True)
class LOr:
    left: object
    right: object

    def key(self):
        return f"({self.left.key()})|({self.right.key()})"


@dataclass(frozen=True)
class LUntil:
    left: object
    right: object

    def key(self):
        return f"({self.left.key()})U({self.right.key()})"


@dataclass(frozen=True)
class LRelease:
    left: object
    right: object

    def key(self):
        return f"({self.left.key()})R({self.right.key()})"


def nnf(f: Formula, negated: bool = False):
    if isinstance(f, Scope):
        raise TypeError("scopes must be desugared before translation")
    if isinstance(f, Atom):
        return LAtom(f.prop, not negated)
    if isinstance(f, TrueF):
        return LFalse() if negated else LTrue()
    if isinstance(f, FalseF):
        return LTrue() if negated else LFalse()
    if isinstance(f, Not):
        return nnf(f.operand, not negated)
    if isinstance(f, And):
        cls = LOr if negated else LAnd
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Or):
        cls = LAnd if negated else LOr
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Implies):
        if negated:  # ~(a -> b) == a /\ ~b
            return LAnd(nnf(f.left, False), nnf(f.right, True))
        return LOr(nnf(f.left, True), nnf(f.right, False))
    if isinstance(f, Until):
        cls = LRelease if negated else LUntil
        return cls(nnf(f.left, negated), nnf(f.right, negated))
    if isinstance(f, Always):  # [] g == false R g
        if negated:
            return LUntil(LTrue(), nnf(f.operand, True))
        return LRelease(LFalse(), nnf(f.operand, False))
    if isinstance(f, Eventually):  # <> g == true U g
        if negated:
            return LRelease(LFalse(), nnf(f.operand, True))
        return LUntil(LTrue(), nnf(f.operand, False))
    raise TypeError(f"not a formula: {f!r}")


def _until_subformulas(g, acc):
    if isinstance(g, LUntil) and g not in acc:
        acc.append(g)
    if isinstance(g, (LAnd, LOr, LUntil, LRelease)):
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


def _expand(node, nodes, counter):
    while True:
        if not node.new:
            for other in nodes:
                if frozenset(other.old) == frozenset(node.old) and frozenset(
                    other.next
                ) == frozenset(node.next):
                    other.incoming.update(node.incoming)
                    return
            nodes.append(node)
            succ = _Node(next(counter), [node.nid], list(node.next), [], [])
            _expand(succ, nodes, counter)
            return
        f = next(iter(node.new))
        del node.new[f]
        if f in node.old:
            continue
        if isinstance(f, LFalse):
            return  # contradiction: drop this node
        if isinstance(f, LTrue):
            continue
        if isinstance(f, LAtom):
            # A literal clashing with one already assumed kills the node.
            if LAtom(f.prop, not f.positive) in node.old:
                return
            node.old[f] = None
            continue
        if isinstance(f, LAnd):
            node.old[f] = None
            for g in (f.left, f.right):
                if g not in node.old:
                    node.new[g] = None
            continue
        # The splitting cases: try one obligation set, then the other.
        if isinstance(f, LOr):
            first, second, extra_next = [f.left], [f.right], []
        elif isinstance(f, LUntil):
            first, second, extra_next = [f.left], [f.right], [f]
        elif isinstance(f, LRelease):
            first, second, extra_next = [f.right], [f.left, f.right], [f]
        else:
            raise TypeError(f"unexpected formula in tableau: {f!r}")
        copy = _Node(
            next(counter),
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
        _expand(copy, nodes, counter)
        # loop to keep expanding the current node


def _tableau(formula_nnf):
    counter = iter(range(10**9))
    next(counter)  # 0 is reserved for the seed node below
    nodes = []
    seed = _Node(0, [_INIT], [formula_nnf], [], [])
    _expand(seed, nodes, counter)
    return nodes


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
    g = nnf(desugar(f))
    nodes = _tableau(g)
    untils = _until_subformulas(g, [])

    # Generalized acceptance: one set per until; a node is fair for
    # (a U b) when it satisfies b or no longer owes (a U b).
    def fair(node, u):
        return u.right in node.old or u not in node.old

    by_id = {n.nid: n for n in nodes}
    edges = {n.nid: [] for n in nodes}
    lgba_initial = []
    for n in nodes:
        for pred in n.incoming:
            if pred == _INIT:
                lgba_initial.append(n.nid)
            elif pred in by_id:
                edges[pred].append(n.nid)

    k = max(1, len(untils))

    def fair_at(node, level):
        if not untils:
            return True
        return fair(node, untils[level])

    # Counter degeneralization: track which fairness set we are waiting on.
    states = []
    ids = {}
    guards = {}
    successors = {}
    accepting = set()

    def intern(nid, level):
        key = (nid, level)
        if key not in ids:
            ids[key] = len(states)
            states.append(key)
            node = by_id[nid]
            guards[ids[key]] = tuple(
                sorted(
                    ((f.prop, f.positive) for f in node.old if isinstance(f, LAtom)),
                    key=lambda lit: (repr(lit[0]), lit[1]),
                )
            )
        return ids[key]

    initial = tuple(intern(nid, 0) for nid in lgba_initial)
    frontier = list(initial)
    seen = set(frontier)
    while frontier:
        sid = frontier.pop(0)
        nid, level = states[sid]
        node = by_id[nid]
        nxt_level = (level + 1) % k if fair_at(node, level) else level
        if level == 0 and fair_at(node, 0):
            accepting.add(sid)
        succs = []
        for succ_nid in edges[nid]:
            tid = intern(succ_nid, nxt_level)
            succs.append(tid)
            if tid not in seen:
                seen.add(tid)
                frontier.append(tid)
        successors[sid] = tuple(succs)
    for sid in range(len(states)):
        successors.setdefault(sid, ())

    return BuchiAutomaton(
        states=tuple(range(len(states))),
        initial=initial,
        accepting=frozenset(accepting),
        guards=guards,
        successors=successors,
    )
