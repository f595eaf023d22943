"""Temporal-logic checking over the reachable state graph.

The primary route is automata-theoretic: negate the formula, build a
Büchi automaton for the negation, form the product with the (lasso
shaped) state graph, and run a nested depth-first search for a reachable
accepting cycle.  A non-empty product yields a counterexample run,
reported as a prefix plus a repeating cycle of actual system states.

The formula language has no next operator, so every formula is
stutter-invariant (Peled & Wilke, IPL 1997): a word and the word with
each run of equal letters cut to one satisfy the same formulas.  The
verdict is therefore decided on the product with the minimal lasso of
the run's ω-word over the formula's atoms: the shortest stem and cycle
that spell that word up to stutter.  An ultimately periodic word has
exactly one; its cycle is the primitive root of the run's cycle with its
runs cut to one, and its stem is what is left of the run's stem once
each letter that equals the cycle's last has rolled into the cycle.  It
is usually a handful of letters where the graph has hundreds of nodes.
Only when that product has an accepting lasso is the full product
searched, and its accepting lasso is the witness, so witnesses name real
graph nodes.

Every answer is cross-checked before it is returned.  The system has
exactly one infinite run (each state has one successor), so the formula
can also be evaluated directly on that run — an independent second
route.  It works on bit rows, one int per subformula whose bit i is the
truth at position i, and needs no fixpoint iteration: connectives are
bitwise operations, an until is one carry over the stem and two laps of
the cycle (Markey & Schnoebelen, "Model checking a path", CONCUR 2003),
an always or eventually one look at the cycle and one at the stem.  A
counterexample additionally has to follow real graph edges and violate
the formula when replayed.  Disagreement between the routes is a bug and
raises immediately rather than returning a possibly-wrong verdict.

Atom truth is computed once per graph and kept only as a bit row
(``StateGraph.atom_bits``), one int per atom from one pass over the
nodes, shared by both routes and by every later check on the same
graph; the routes share nothing past that.  The minimal lasso is built
from the bit rows: a run of equal letters ends where some atom's row
changes, and letters are read only there, from each row's binary digits.
Nodes with the same truth vector over a formula's atoms form a valuation
class; the minimal lasso keeps every class, and a failing formula reads
each node's class from the same digits.  The product search works on
flat data: a product state is one integer, its colour a byte, and the
automaton states a step may enter form one tuple per (automaton state,
class), built from a memo that asks whether an automaton state's guard
holds once per (state, class), not once per product edge; the compressed
and the full search share those answers.  Replay does not use the
shared truth: it evaluates each of the formula's atoms afresh on the
witness states, packs those rows the same way, and re-executes the run
to reproduce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
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
from .props import pack_row, prop_holds, prop_row


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

    Works by computing, per subformula, its truth at every position at
    once, as an int whose bit i is position i: boolean connectives
    bitwise, until by one carry over two laps of the cycle, always and
    eventually by one look at the cycle and one at the stem's last false
    or true position.  This deliberately shares nothing with the
    automaton construction beyond ``rows``: when given, a mapping from
    each atom's proposition to its truth at every position packed the
    same way (``pack_row``), read instead of evaluating the states with
    ``prop_row``.
    """
    n = len(states)
    if not (0 <= cycle_start < n):
        raise ValueError("cycle start out of range")
    if rows is None:
        rows = {prop: prop_row(states, prop) for prop in collect_atoms(formula)}
    return bool(_truth(formula, n, cycle_start, rows) & 1)


def _truth(f, n: int, entry: int, rows) -> int:
    """The truth of ``f`` at every position of eval_on_lasso's run, bit i
    for position i.

    Every position of the cycle recurs, so a subformula's truth on the
    cycle depends only on the cycle: an always holds on the stem after its
    operand's last false position there, if it holds on the whole cycle,
    and an eventually on the stem up to its operand's last true position,
    unless it holds on the whole cycle.  An until that holds has its
    witness within one lap, so it is computed on the word stem, cycle,
    cycle, assuming false past the end.  With the bits reversed, a
    position's successor is the bit below it, and adding the seeds (the
    positions that only propagate, P = L & ~R, whose successor holds R)
    to P clears exactly the runs of P that start at a seed.
    """
    full = (1 << n) - 1
    if isinstance(f, TrueF):
        return full
    if isinstance(f, FalseF):
        return 0
    if isinstance(f, Atom):
        return rows[f.prop]
    if isinstance(f, Not):
        return full ^ _truth(f.operand, n, entry, rows)
    if isinstance(f, (And, Or, Implies, Until)):
        left, right = _truth(f.left, n, entry, rows), _truth(f.right, n, entry, rows)
        if isinstance(f, And):
            return left & right
        if isinstance(f, Or):
            return left | right
        if isinstance(f, Implies):
            return (full ^ left) | right
        # The word stem, cycle, cycle, with its bits reversed.
        width = 2 * n - entry
        lo = _reversed(left | (left >> entry) << n, width)
        ro = _reversed(right | (right >> entry) << n, width)
        propagate = lo & ~ro
        held = ro | (propagate & ~(propagate + ((ro << 1) & propagate)))
        return _reversed(held, width) & full
    if isinstance(f, Always):
        false = full ^ _truth(f.operand, n, entry, rows)
        return 0 if false >> entry else full ^ ((1 << false.bit_length()) - 1)
    if isinstance(f, Eventually):
        true = _truth(f.operand, n, entry, rows)
        return full if true >> entry else (1 << true.bit_length()) - 1
    raise TypeError(f"not a formula: {f!r}")


def _reversed(bits: int, width: int) -> int:
    """``bits`` with bit i moved to bit width - 1 - i."""
    return int(format(bits, f"0{width}b")[::-1], 2)


# Product emptiness via nested depth-first search. ----------------------------

_CYAN, _BLUE = 1, 2
_SELECT = bytes.maketrans(b"01", b"\0\1")
_TRUTH = {"0": False, "1": True}


def _minimal_lasso(bits, n: int, entry: int):
    """The shortest lasso that spells the word of ``n`` letters, whose
    cycle starts at ``entry``, up to stutter.

    ``bits`` are the atoms' bit rows, and the letter at position i is the
    tuple of their bits i, each the binary digit "0" or "1".
    Letters are read only where a run of equal letters ends: at the set
    bits of the OR over the atoms of ``m ^ (m >> 1)``, which leaves the
    stem's last run to the cycle's first when they agree, and at position
    n - 1.  A cycle whose last letter equals its first loses the last; it
    is then cut to its primitive root, and the stem's last letter rolls
    into the cycle while it equals the cycle's last.  None of this changes
    the word the lasso spells.  Returns (stem, cycle), lists of letters.
    """
    change = 0
    for m in bits:
        change |= m ^ (m >> 1)
    ends = change | 1 << (n - 1)
    # One byte per position, 1 where a run ends, to select from each row's
    # binary digits; both run from position n - 1 down to 0, so the letters
    # come out last first.
    width = f"0{n}b"
    select = format(ends, width).encode().translate(_SELECT)
    letters = list(zip(*[compress(format(m, width), select) for m in bits])) or [()]
    letters.reverse()
    split = (ends & ((1 << entry) - 1)).bit_count()
    stem, cycle = letters[:split], letters[split:]
    if len(cycle) > 1 and cycle[-1] == cycle[0]:
        cycle.pop()
    k = len(cycle)
    del cycle[next(p for p in range(1, k + 1) if k % p == 0 and cycle[p:] == cycle[:-p]) :]
    while stem and stem[-1] == cycle[-1]:
        stem.pop()
        cycle.insert(0, cycle.pop())
    return stem, cycle


def _find_accepting_lasso(succ, classes, ba: BuchiAutomaton, valuations, enters):
    """Nested DFS (blue/red with a cyan stack) over the product.

    The word is a lasso of positions: ``succ[i]`` is position ``i``'s one
    successor, ``classes[i]`` its valuation class, and ``valuations[c]``
    the truth of every atom on class ``c``.  ``enters`` memoizes whether
    an automaton state's guard holds on a class, keyed by (state, class),
    and may be shared between searches over words of the same classes.
    Returns (prefix, cycle) as lists of (position, automaton state) pairs,
    or None when the product has no reachable accepting cycle.

    A product state is the integer ``position * nq + q`` for ``nq``
    automaton states, and its colour a byte.  The automaton states a step
    out of ``q`` may enter on class ``c`` form one tuple, built from
    ``enters`` the first time a step needs it.
    """
    nq = len(ba.states)
    accepting = bytearray(nq)
    for q in ba.accepting:
        accepting[q] = 1
    moves = [None] * (len(valuations) * nq)  # class * nq + q -> what q may enter on the class

    def can_enter(q, c):
        key = (q, c)
        ok = enters.get(key)
        if ok is None:
            ok = enters[key] = ba.guard_holds(q, valuations[c])
        return ok

    def targets(ps):
        """(base, automaton states): ``ps``'s successors are base + each state."""
        node, q = divmod(ps, nq)
        nxt = succ[node]
        c = classes[nxt]
        key = c * nq + q
        entered = moves[key]
        if entered is None:
            entered = moves[key] = tuple(q2 for q2 in ba.successors[q] if can_enter(q2, c))
        return nxt * nq, entered

    color = bytearray(len(succ) * nq)
    red = bytearray(len(succ) * nq)

    initial = [q for q in ba.initial if can_enter(q, classes[0])]  # at position 0
    for start in initial:
        if color[start] == _BLUE:
            continue
        # Blue DFS, iterative.  A frame is (state, base, iterator over the
        # automaton states its successors enter, whether it is accepting);
        # the for loop resumes a frame's iterator where its last push left it.
        base, entered = targets(start)
        stack = [(start, base, iter(entered), accepting[start])]
        color[start] = _CYAN
        while stack:
            state, base, entered, acc = stack[-1]
            for q2 in entered:
                child = base + q2
                c = color[child]
                if c == _CYAN and (acc or accepting[q2]):
                    # Closing edge straight back into the blue stack.
                    path = [frame[0] for frame in stack]
                    j = path.index(child)
                    return _pairs(path[:j], nq), _pairs(path[j:], nq)
                if not c:
                    color[child] = _CYAN
                    child_base, child_entered = targets(child)
                    stack.append((child, child_base, iter(child_entered), accepting[q2]))
                    break
            else:
                # Postorder: run the red search from accepting states.
                if acc:
                    hit = _red_dfs(state, targets, color, red)
                    if hit is not None:
                        red_path, target = hit
                        path = [frame[0] for frame in stack]
                        j = path.index(target)
                        # Cycle: blue stack from target up to state, then the red
                        # detour back to target (its endpoint, excluded).
                        return _pairs(path[:j], nq), _pairs(path[j:] + red_path[1:-1], nq)
                color[state] = _BLUE
                stack.pop()
    return None


def _pairs(states, nq):
    return [divmod(ps, nq) for ps in states]


def _red_dfs(root, targets, color, red):
    """Depth-first from an accepting state, hunting any state on the blue stack.

    Returns (path, target) where path runs root -> ... -> target and target
    is cyan, or None.  ``red`` marks visited states and persists across calls.
    """
    parent = {root: None}
    stack = [root]
    red[root] = 1
    while stack:
        state = stack.pop()
        base, entered = targets(state)
        for q2 in entered:
            child = base + q2
            if color[child] == _CYAN:
                path = [child]
                cur = state
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()  # root ... state child
                return path, child
            if not red[child]:
                red[child] = 1
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
    # A bad actor path, variable or location raises here, when its
    # proposition compiles, whatever the nodes hold.
    atoms = collect_atoms(f)
    bits = {prop: graph.atom_bits(prop) for prop in atoms}

    ba = ltl_to_buchi(Not(f))
    # Stutter invariance: the product with the minimal lasso is empty
    # exactly when the full one is.  Only a failing formula searches the
    # full product, whose accepting lasso is the witness.
    n, entry = len(graph.nodes), graph.cycle_entry()
    stem, cycle = _minimal_lasso(bits.values(), n, entry)
    letters = stem + cycle
    # Valuation classes: the distinct vectors of digits, numbered as they
    # first occur (the minimal lasso keeps every one).  The automaton may
    # constrain only a subset of the atoms; valuations carry them all, as
    # True and False, since a guard compares each truth with ``is``.
    class_ids = {vector: c for c, vector in enumerate(dict.fromkeys(letters))}
    valuations = [dict(zip(atoms, map(_TRUTH.get, vector))) for vector in class_ids]
    enters = {}
    hit = None
    short_succ = list(range(1, len(letters))) + [len(stem)]
    short_classes = [class_ids[vector] for vector in letters]
    if _find_accepting_lasso(short_succ, short_classes, ba, valuations, enters) is not None:
        vectors = zip(*[format(m, f"0{n}b") for m in bits.values()]) if atoms else [()] * n
        classes = [class_ids[vector] for vector in vectors]
        classes.reverse()
        hit = _find_accepting_lasso(graph.succ, classes, ba, valuations, enters)
        if hit is None:
            raise AssertionError(
                "model-checking routes disagree (compressed vs full product); "
                "this is a bug in the checker"
            )

    # Second route: evaluate the formula directly on the unique run.
    direct = eval_on_lasso(graph.nodes, entry, f, bits)
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
    # The formula's own rows over the witness states, one per atom however
    # often the formula reads it, packed as eval_on_lasso reads them; the
    # graph's rows are not consulted.
    states = witness.prefix + witness.cycle
    rows = {prop: pack_row([prop_holds(state, prop) for state in states]) for prop in collect_atoms(formula)}
    if eval_on_lasso(states, len(witness.prefix), formula, rows):
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
