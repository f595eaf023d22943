"""Temporal-logic checking over the reachable state graph.

The primary route is automata-theoretic: negate the formula, build a
Büchi automaton for the negation, form the product with the (lasso
shaped) state graph, and run a nested depth-first search for a reachable
accepting cycle.  A non-empty product yields a counterexample run,
reported as a prefix plus a repeating cycle of actual system states.

The formula language has no next operator, so every formula is
stutter-invariant (Peled & Wilke, IPL 1997): a word and the word with
each run of equal letters cut to one satisfy the same formulas.  The
verdict is therefore decided on the product with the compressed lasso
of valuation classes, which is much shorter than the graph.  Only when
that product has an accepting lasso is the full product searched, and
its accepting lasso is the witness, so witnesses name real graph nodes.

Every answer is cross-checked before it is returned.  The system has
exactly one infinite run (each state has one successor), so the formula
can also be evaluated directly on that run by fixpoint iteration around
the lasso — an independent second route.  A counterexample additionally
has to follow real graph edges and violate the formula when replayed.
Disagreement between the routes is a bug and raises immediately rather
than returning a possibly-wrong verdict.

Atom truth is computed once per graph (``StateGraph.atom_row``) and
shared by both routes and by every later check on the same graph; the
routes share nothing past that.  Nodes with the same truth vector over a
formula's atoms form a valuation class, and the product search asks
whether an automaton state's guard holds once per (state, class), not
once per product edge; the compressed and the full search share those
answers.  Replay does not use the shared truth: it evaluates the
formula afresh on the witness states and re-executes the run to
reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

from .buchi import BuchiAutomaton, ltl_to_buchi
from .executor import step
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
    TrueF,
    Until,
    collect_atoms,
    desugar,
)
from .graph import StateGraph, Stutter
from .props import prop_holds


@dataclass
class Witness:
    """A violating run: the prefix states, then the cycle states repeating."""

    prefix_ids: list
    cycle_ids: list
    prefix: list  # SystemStates, parallel to prefix_ids
    cycle: list


@dataclass
class Verdict:
    holds: bool
    witness: Optional[Witness]
    graph: StateGraph


# Direct evaluation of a formula on a lasso. ---------------------------------


def eval_on_lasso(states, cycle_start: int, formula: Formula, rows=None) -> bool:
    """Truth of ``formula`` at position 0 of the run states[0..] where
    position len(states)-1 loops back to ``cycle_start``.

    Works by computing, per subformula, its truth at every position:
    boolean connectives pointwise, until as a least fixpoint and always
    as a greatest fixpoint iterated around the loop until stable.  This
    deliberately shares nothing with the automaton construction beyond
    ``rows``: when given, a mapping from each atom's proposition to its
    truth at every position, read instead of evaluating the states.
    """
    n = len(states)
    if not (0 <= cycle_start < n):
        raise ValueError("cycle start out of range")
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = cycle_start
    return _table(formula, states, succ, rows)[0]


def _table(f, states, succ, rows) -> list:
    """The truth of ``f`` at every position of eval_on_lasso's run.

    Not a closure: a recursive closure refers to itself, and that cycle
    would keep the run's states, and their network, alive until the
    cycle collector runs.
    """
    n = len(states)
    if isinstance(f, TrueF):
        return [True] * n
    if isinstance(f, FalseF):
        return [False] * n
    if isinstance(f, Atom):
        if rows is not None:
            return rows[f.prop]
        return [prop_holds(s, f.prop) for s in states]
    if isinstance(f, Not):
        return [not v for v in _table(f.operand, states, succ, rows)]
    if isinstance(f, And):
        left, right = _table(f.left, states, succ, rows), _table(f.right, states, succ, rows)
        return [a and b for a, b in zip(left, right)]
    if isinstance(f, Or):
        left, right = _table(f.left, states, succ, rows), _table(f.right, states, succ, rows)
        return [a or b for a, b in zip(left, right)]
    if isinstance(f, Implies):
        left, right = _table(f.left, states, succ, rows), _table(f.right, states, succ, rows)
        return [(not a) or b for a, b in zip(left, right)]
    if isinstance(f, Until):
        left, right = _table(f.left, states, succ, rows), _table(f.right, states, succ, rows)
        vals = [False] * n  # least fixpoint: start from nowhere
        changed = True
        while changed:
            changed = False
            for i in reversed(range(n)):
                v = right[i] or (left[i] and vals[succ[i]])
                if v != vals[i]:
                    vals[i] = v
                    changed = True
        return vals
    if isinstance(f, Eventually):
        return _table(Until(TrueF(), f.operand), states, succ, rows)
    if isinstance(f, Always):
        inner = _table(f.operand, states, succ, rows)
        vals = [True] * n  # greatest fixpoint: start from everywhere
        changed = True
        while changed:
            changed = False
            for i in reversed(range(n)):
                v = inner[i] and vals[succ[i]]
                if v != vals[i]:
                    vals[i] = v
                    changed = True
        return vals
    raise TypeError(f"not a formula: {f!r}")


# Product emptiness via nested depth-first search. ----------------------------

_CYAN, _BLUE = 1, 2


def _stutter_lasso(classes, cycle_entry: int):
    """The lasso word ``classes`` with each run of equal letters cut to one.

    The word is ``classes[:cycle_entry]`` followed by ``classes[cycle_entry:]``
    repeating.  Runs are collapsed in the stem and in the cycle, a cycle
    whose last letter equals its first loses the last, and a stem whose
    last letter equals the cycle's first loses it.  Returns (succ, letters):
    the short lasso's successor list and the class at each position.
    """
    stem = [c for c, _ in groupby(classes[:cycle_entry])]
    cycle = [c for c, _ in groupby(classes[cycle_entry:])]
    if len(cycle) > 1 and cycle[-1] == cycle[0]:
        cycle.pop()
    if stem and stem[-1] == cycle[0]:
        stem.pop()
    succ = list(range(1, len(stem) + len(cycle))) + [len(stem)]
    return succ, stem + cycle


def _find_accepting_lasso(succ, classes, ba: BuchiAutomaton, valuations, enters):
    """Nested DFS (blue/red with a cyan stack) over the product.

    The word is a lasso of positions: ``succ[i]`` is position ``i``'s one
    successor, ``classes[i]`` its valuation class, and ``valuations[c]``
    the truth of every atom on class ``c``.  ``enters`` memoizes whether
    an automaton state's guard holds on a class, keyed by (state, class),
    and may be shared between searches over words of the same classes.
    Returns (prefix, cycle) as lists of product states, or None when the
    product has no reachable accepting cycle.
    """

    def can_enter(q, node):
        key = (q, classes[node])
        ok = enters.get(key)
        if ok is None:
            ok = enters[key] = ba.guard_holds(q, valuations[key[1]])
        return ok

    def successors(ps):
        node, q = ps
        nxt = succ[node]
        return [(nxt, q2) for q2 in ba.successors[q] if can_enter(q2, nxt)]

    def accepting(ps):
        return ps[1] in ba.accepting

    color = {}
    red = set()

    initial = [(0, q) for q in ba.initial if can_enter(q, 0)]
    for start in initial:
        if color.get(start) == _BLUE:
            continue
        # Blue DFS, iterative; stack frames are (state, successor list, index).
        stack = [[start, successors(start), 0]]
        color[start] = _CYAN

        def stack_states():
            return [frame[0] for frame in stack]

        while stack:
            frame = stack[-1]
            state, succs, idx = frame
            if idx < len(succs):
                frame[2] += 1
                child = succs[idx]
                c = color.get(child)
                if c == _CYAN and (accepting(state) or accepting(child)):
                    # Closing edge straight back into the blue stack.
                    path = stack_states()
                    j = path.index(child)
                    return path[:j], path[j:]
                if c is None:
                    color[child] = _CYAN
                    stack.append([child, successors(child), 0])
                continue
            # Postorder: run the red search from accepting states.
            if accepting(state):
                hit = _red_dfs(state, successors, color, red)
                if hit is not None:
                    red_path, target = hit
                    path = stack_states()
                    j = path.index(target)
                    # Cycle: blue stack from target up to state, then the red
                    # detour back to target (its endpoint, excluded).
                    return path[:j], path[j:] + red_path[1:-1]
            color[state] = _BLUE
            stack.pop()
    return None


def _red_dfs(root, successors, color, red):
    """Depth-first from an accepting state, hunting any state on the blue stack.

    Returns (path, target) where path runs root -> ... -> target and target
    is cyan, or None.  ``red`` persists across calls.
    """
    parent = {root: None}
    stack = [root]
    red.add(root)
    while stack:
        state = stack.pop()
        for child in successors(state):
            if color.get(child) == _CYAN:
                path = [child]
                cur = state
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()  # root ... state child
                return path, child
            if child not in red:
                red.add(child)
                parent[child] = state
                stack.append(child)
    return None


# The public entry point. ------------------------------------------------------


def check_ltl(graph: StateGraph, formula: Formula) -> Verdict:
    """Decide whether every run from node 0 satisfies the formula.

    The formula is checked on the given graph (build it first; bounded
    graphs give bounded-horizon answers).  The verdict is validated
    against an independent evaluation of the system's single infinite
    run before being returned.
    """
    f = desugar(formula)
    # Surface bad actor paths / variables / locations immediately, and on
    # every node: propositions must be evaluable over the whole graph.
    atoms = collect_atoms(f)
    rows = {prop: graph.atom_row(prop) for prop in atoms}
    # Valuation classes: the distinct truth vectors over the atoms.
    vectors = zip(*rows.values()) if atoms else [()] * len(graph.nodes)
    class_ids = {}
    classes = [class_ids.setdefault(vector, len(class_ids)) for vector in vectors]
    # The automaton may constrain only a subset of the atoms; valuations
    # carry them all.
    valuations = [dict(zip(atoms, vector)) for vector in class_ids]

    ba = ltl_to_buchi(Not(f))
    # Stutter invariance: the compressed product is empty exactly when the
    # full one is.  Only a failing formula searches the full product, whose
    # accepting lasso is the witness.
    entry = graph.cycle_entry()
    enters = {}
    hit = None
    short_succ, letters = _stutter_lasso(classes, entry)
    if _find_accepting_lasso(short_succ, letters, ba, valuations, enters) is not None:
        hit = _find_accepting_lasso(graph.succ, classes, ba, valuations, enters)
        if hit is None:
            raise AssertionError(
                "model-checking routes disagree (compressed vs full product); "
                "this is a bug in the checker"
            )

    # Second route: evaluate the formula directly on the unique run.
    direct = eval_on_lasso(graph.nodes, entry, f, rows)
    if (hit is None) != direct:
        raise AssertionError(
            "model-checking routes disagree (automaton vs direct evaluation); "
            "this is a bug in the checker"
        )

    if hit is None:
        return Verdict(True, None, graph)

    prefix_ps, cycle_ps = hit
    witness = Witness(
        prefix_ids=[n for n, _ in prefix_ps],
        cycle_ids=[n for n, _ in cycle_ps],
        prefix=[graph.nodes[n] for n, _ in prefix_ps],
        cycle=[graph.nodes[n] for n, _ in cycle_ps],
    )
    _replay(graph, witness, f)
    return Verdict(False, witness, graph)


def _replay(graph: StateGraph, witness: Witness, formula: Formula) -> None:
    """A counterexample must be a real run and must violate the formula."""
    ids = witness.prefix_ids + witness.cycle_ids
    for here, there in zip(ids, ids[1:]):
        if graph.succ[here] != there:
            raise AssertionError("counterexample does not follow graph edges")
    if graph.succ[ids[-1]] != witness.cycle_ids[0]:
        raise AssertionError("counterexample cycle does not close")
    states = witness.prefix + witness.cycle
    if eval_on_lasso(states, len(witness.prefix), formula):
        raise AssertionError("counterexample replay does not violate the formula")
    # Re-execute the run, closing edge included, and demand the very same
    # states, so a reported witness is something a simulation reproduces
    # and not an artifact of graph bookkeeping.  One lap is enough: steps
    # are deterministic, so a second would repeat the first.
    loop = ids + witness.cycle_ids[:1]
    current = graph.nodes[0]
    if graph.nodes[loop[0]] != current:
        raise AssertionError("counterexample does not start at the initial state")
    for here, there in zip(loop, loop[1:]):
        if isinstance(graph.kinds[here], Stutter):
            nxt = current
        else:
            nxt, _ = step(current, bottom_as_absent=graph.bottom_as_absent)
        if nxt != graph.nodes[there]:
            raise AssertionError("counterexample replay diverged from the executor")
        current = nxt
