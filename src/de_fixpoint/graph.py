"""Reachable state graphs, cycle detection, and state search.

Because a step is a deterministic function of the state, the reachable
graph from one initial state is a lasso: a stem of fresh states followed
by either a cycle (some earlier state repeats) or a terminal state that
we close with a self-loop (the queue drained, or the time bound cut the
run short).  Every node therefore has exactly one successor, which is
what the temporal-logic layer relies on.

State identity is the interesting dial.  By default two states that
differ only in the absolute timestamp (and microstep index) are the same
node — that is what lets periodic systems close their cycle at all.
When a time bound is given, identity additionally includes the
timestamp, so every reported state sits at the time it really occurred;
the price is a graph that grows with the bound.

Nodes are found by their hash (and, when bounded, their time), and the
nodes that share one are told apart by equality, in the order they were
found.  A state's hash skips its port statuses, so states that differ
only there share a hash.  Keyed by the states themselves, a dict would
compare them on its own probe path, which can pass one slot twice and
depends on how the per-process hash values lay out the table; this way
a build makes the same equality tests in every process.

A graph keeps the truth of each proposition a check has asked about,
once, as a bit row: an int whose bit i is the truth on node i
(``StateGraph.atom_bits``).  A search still asks ``prop_holds`` node by
node, so it stops at the first hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import StateSpaceExceeded
from .executor import passes_bound, step, ticks_within
from .props import prop_holds, prop_row
from .state import SystemState

DEFAULT_MAX_STATES = 100_000


@dataclass(frozen=True)
class Stutter:
    """Synthetic self-loop edge on terminal / bound-cut states."""

    def json(self):
        return {"type": "stutter"}


@dataclass
class StateGraph:
    """The lasso of reachable states, as ``build_state_graph`` returns it.

    A graph is fixed once it is built: nothing changes ``nodes``,
    ``succ`` or ``kinds`` afterwards.  That is what lets it keep the truth
    of each proposition on every node once computed, so every check run
    against the same graph shares it.
    """

    nodes: list  # SystemState, id = index, id 0 = initial
    succ: list  # node id -> unique successor id
    kinds: list  # node id -> step kind taken out of it (Stutter on self-loops)
    bounded: bool
    bottom_as_absent: bool = False
    _bits: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def cycle_entry(self) -> int:
        """First node id that lies on the lasso's cycle."""
        # The last computed successor points back into the node list.
        return self.succ[len(self.nodes) - 1]

    def atom_bits(self, prop) -> int:
        """Truth of ``prop`` on every node, as an int whose bit i is node
        i's truth (``prop_row``; the nodes share one network).

        Computed on first use in one pass over the nodes' slots and kept.
        A bad actor path, variable or location raises what ``prop_holds``
        raises, on every call, since a row that fails is not kept.
        """
        bits = self._bits.get(prop)
        if bits is None:
            bits = self._bits[prop] = prop_row(self.nodes, prop)
        return bits


def _key(state: SystemState, bounded: bool):
    if bounded:
        return (hash(state), state.now, state.microstep_of_instant)
    return hash(state)


def build_state_graph(
    initial: SystemState,
    time_bound=None,
    max_states: int = DEFAULT_MAX_STATES,
    bottom_as_absent: bool = False,
) -> StateGraph:
    """Explore every reachable state.

    A deterministic system's run is a single chain, so the states are
    expanded one after another.
    """
    bounded = time_bound is not None
    bound = ticks_within(initial, time_bound) if bounded else None

    nodes = [initial]
    kinds = []
    succ = []
    ids = {_key(initial, bounded): [0]}  # key -> the node ids that have it
    while True:
        if len(nodes) > max_states:
            raise StateSpaceExceeded(max_states)
        state = nodes[-1]
        if not state.entries or passes_bound(state, bound):
            succ.append(len(nodes) - 1)  # terminal: self-loop
            kinds.append(Stutter())
            break
        nxt, kind = step(state, bottom_as_absent=bottom_as_absent)
        kinds.append(kind)
        # One lookup interns a new state or finds the one that closes the lasso.
        same = ids.setdefault(_key(nxt, bounded), [])
        for known in same:
            if nodes[known] == nxt:
                break
        else:
            known = len(nodes)
        succ.append(known)
        if known < len(nodes):
            break
        same.append(known)
        nodes.append(nxt)

    return StateGraph(nodes, succ, kinds, bounded, bottom_as_absent)


@dataclass
class SearchHit:
    node_id: int
    state: SystemState


def search(graph: StateGraph, prop) -> SearchHit:
    """First node (in discovery = chronological order) satisfying the prop."""
    for i, state in enumerate(graph.nodes):
        if prop_holds(state, prop):
            return SearchHit(i, state)
    return None
