"""Independent reference semantics for LTL on lasso-shaped runs.

This module deliberately avoids the package's own lasso evaluator and
automaton pipeline.  It works on an ultimately periodic word given as a
list of valuations plus the index where the loop re-enters, and decides
formulas by direct bounded search:

Truth of any subformula along an ultimately periodic word is itself
ultimately periodic with the same prefix/period shape, so an until
(or an always/eventually) that has a witness at all has one within one
period past the point of interest.  Searching positions up to
``prefix + 2 * period`` and folding every position back to its
canonical index is therefore exact, with no fixpoint computation.

A second reference, ``eval_fixpoint``, is the evaluation the checker
used before its lap-based form: per subformula, a truth table over the
positions, with until as a least and always as a greatest fixpoint,
swept backwards around the loop until nothing changes.  A third,
``eval_laps``, is that lap-based form, which the checker used before it
evaluated on bit rows: the same tables, filled in exact laps.

Also provided: a Büchi-acceptance oracle built on networkx, used to
check automaton constructions against word membership.
"""

from __future__ import annotations

from operator import and_, le, or_

import networkx as nx

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
)


def eval_word(valuations, loop_start: int, formula, position: int = 0) -> bool:
    """Truth of ``formula`` at ``position`` of the word u · v^ω.

    ``valuations`` holds one dict (proposition -> bool) per position of
    the prefix u followed by the cycle v; ``loop_start`` is where v
    begins.  ``formula`` must be scope-free except that Scope nodes with
    pre-resolved atoms are rejected loudly.
    """
    return _word_truths(valuations, loop_start, formula, [position])[0]


def eval_word_everywhere(valuations, loop_start: int, formula) -> list:
    """``eval_word`` at every position of u · v, sharing one memo."""
    return _word_truths(valuations, loop_start, formula, range(len(valuations)))


def _word_truths(valuations, loop_start, formula, positions) -> list:
    total = len(valuations)
    period = total - loop_start
    assert period > 0, "the lasso needs a non-empty cycle"
    horizon = total + 2 * period

    def canon(q: int) -> int:
        return q if q < total else loop_start + (q - loop_start) % period

    memo = {}

    def truth(f, p: int) -> bool:
        p = canon(p)
        key = (id(f), p)
        if key in memo:
            return memo[key]
        if isinstance(f, TrueF):
            result = True
        elif isinstance(f, FalseF):
            result = False
        elif isinstance(f, Atom):
            result = valuations[p][f.prop]
        elif isinstance(f, Not):
            result = not truth(f.operand, p)
        elif isinstance(f, And):
            result = truth(f.left, p) and truth(f.right, p)
        elif isinstance(f, Or):
            result = truth(f.left, p) or truth(f.right, p)
        elif isinstance(f, Implies):
            result = (not truth(f.left, p)) or truth(f.right, p)
        elif isinstance(f, Until):
            result = False
            for q in range(p, horizon):
                if truth(f.right, q):
                    result = True
                    break
                if not truth(f.left, q):
                    break
        elif isinstance(f, Eventually):
            result = any(truth(f.operand, q) for q in range(p, horizon))
        elif isinstance(f, Always):
            result = all(truth(f.operand, q) for q in range(p, horizon))
        elif isinstance(f, Scope):
            raise TypeError("desugar scopes before evaluating")
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = result
        return result

    return [truth(formula, p) for p in positions]


def eval_fixpoint(valuations, loop_start: int, formula) -> list:
    """Truth of ``formula`` at every position of the word u · v^ω, by
    fixpoint iteration around the lasso (arguments as for ``eval_word``)."""
    n = len(valuations)
    assert 0 <= loop_start < n, "the lasso needs a non-empty cycle"
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = loop_start

    def table(f):
        if isinstance(f, TrueF):
            return [True] * n
        if isinstance(f, FalseF):
            return [False] * n
        if isinstance(f, Atom):
            return [v[f.prop] for v in valuations]
        if isinstance(f, Not):
            return [not v for v in table(f.operand)]
        if isinstance(f, And):
            return [a and b for a, b in zip(table(f.left), table(f.right))]
        if isinstance(f, Or):
            return [a or b for a, b in zip(table(f.left), table(f.right))]
        if isinstance(f, Implies):
            return [(not a) or b for a, b in zip(table(f.left), table(f.right))]
        if isinstance(f, Until):
            left, right = table(f.left), table(f.right)
            return _sweep([False] * n, succ, lambda i, after: right[i] or (left[i] and after))
        if isinstance(f, Eventually):
            return table(Until(TrueF(), f.operand))
        if isinstance(f, Always):
            inner = table(f.operand)
            return _sweep([True] * n, succ, lambda i, after: inner[i] and after)
        if isinstance(f, Scope):
            raise TypeError("desugar scopes before evaluating")
        raise TypeError(f"not a formula: {f!r}")

    return table(formula)


def eval_laps(valuations, loop_start: int, formula) -> list:
    """Truth of ``formula`` at every position of the word u · v^ω, by
    exact laps around the lasso (arguments as for ``eval_word``)."""
    n = len(valuations)
    assert 0 <= loop_start < n, "the lasso needs a non-empty cycle"
    return _laps(formula, valuations, loop_start)


def _laps(f, valuations, entry) -> list:
    """The truth of ``f`` at every position, as lists of bools.

    Every position of the cycle recurs, so a subformula's truth on the
    cycle depends only on the cycle.  An until that holds at a position
    has its witness within one lap: the first backward lap, assuming
    false past the loop's end, is exact at the cycle's entry, and the
    second lap, reading that value past the end, is exact everywhere on
    the cycle; it stops at the first position whose value it keeps.  The
    stem then reads the entry's value once.
    """
    n = len(valuations)
    if isinstance(f, TrueF):
        return [True] * n
    if isinstance(f, FalseF):
        return [False] * n
    if isinstance(f, Atom):
        return [v[f.prop] for v in valuations]
    if isinstance(f, Not):
        return [not v for v in _laps(f.operand, valuations, entry)]
    if isinstance(f, (And, Or, Implies)):
        left, right = _laps(f.left, valuations, entry), _laps(f.right, valuations, entry)
        # On truth values, a -> b is a <= b.
        op = {And: and_, Or: or_, Implies: le}[type(f)]
        return list(map(op, left, right))
    if isinstance(f, Until):
        left, right = _laps(f.left, valuations, entry), _laps(f.right, valuations, entry)
        vals = [False] * n
        after = False  # the truth at the successor; nothing past the end yet
        for i in range(n - 1, entry - 1, -1):
            after = vals[i] = right[i] or (left[i] and after)
        # The entry is exact now.  The second lap changes the cycle's
        # positions from its end back to the first that keeps its value;
        # every position before that one keeps its value too.
        for i in range(n - 1, entry - 1, -1):
            now = right[i] or (left[i] and after)
            if now == vals[i]:
                break
            after = vals[i] = now
        after = vals[entry]
        for i in range(entry - 1, -1, -1):
            after = vals[i] = right[i] or (left[i] and after)
        return vals
    if isinstance(f, Always):
        inner = _laps(f.operand, valuations, entry)
        after = all(inner[entry:])
        vals = [after] * n
        for i in range(entry - 1, -1, -1):
            after = vals[i] = inner[i] and after
        return vals
    if isinstance(f, Eventually):
        inner = _laps(f.operand, valuations, entry)
        after = any(inner[entry:])
        vals = [after] * n
        for i in range(entry - 1, -1, -1):
            after = vals[i] = inner[i] or after
        return vals
    if isinstance(f, Scope):
        raise TypeError("desugar scopes before evaluating")
    raise TypeError(f"not a formula: {f!r}")


def _sweep(vals, succ, rule):
    """Backward sweeps of ``vals[i] = rule(i, vals[succ[i]])`` until stable."""
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(vals))):
            v = rule(i, vals[succ[i]])
            if v != vals[i]:
                vals[i] = v
                changed = True
    return vals


def buchi_accepts(ba, valuations, loop_start: int) -> bool:
    """Does the state-labeled automaton accept the word u · v^ω?

    Builds the product of the word lasso with the automaton in networkx
    and looks for a reachable cycle through an accepting state.
    """
    total = len(valuations)

    def succ_pos(p: int) -> int:
        return p + 1 if p + 1 < total else loop_start

    graph = nx.DiGraph()
    roots = []
    for q in ba.initial:
        if ba.guard_holds(q, valuations[0]):
            roots.append((0, q))
            graph.add_node((0, q))
    frontier = list(roots)
    seen = set(roots)
    while frontier:
        pos, q = frontier.pop()
        np = succ_pos(pos)
        for q2 in ba.successors.get(q, ()):
            if not ba.guard_holds(q2, valuations[np]):
                continue
            node = (np, q2)
            graph.add_edge((pos, q), node)
            if node not in seen:
                seen.add(node)
                frontier.append(node)

    for comp in nx.strongly_connected_components(graph):
        has_cycle = len(comp) > 1 or any(graph.has_edge(n, n) for n in comp)
        if has_cycle and any(q in ba.accepting for _, q in comp):
            return True
    return False
