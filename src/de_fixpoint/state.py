"""Complete system snapshots: the actor tree plus the pending-event queue.

Equality and hashing deliberately ignore how much time has elapsed and
the microstep index within the current instant.  Two states that agree
on every actor's mode, variables, and port contents, and on the relative
schedule of future events, behave identically forever — that is the
identification that makes periodic models have finite state graphs.
Searches that need real timestamps keep them separately (see graph.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .events import EMPTY_QUEUE, EventQueue
from .model import COMPOSITE, FSM, ActorNode, iter_actors


@dataclass(frozen=True)
class SystemState:
    top: ActorNode
    queue: EventQueue = EMPTY_QUEUE
    elapsed: Fraction = field(default=Fraction(0), compare=False)
    microstep_of_instant: int = field(default=0, compare=False)


def collect_variables(state: SystemState) -> dict:
    """Variable stores of every actor that has one, keyed by dotted path.

    Frozen refinements are included: their variables are still state,
    they just cannot change until the refinement is live again.
    """
    out = {}
    for path, node, _ in iter_actors(state.top):
        if node.kind in (COMPOSITE, FSM) and node.variables:
            out[".".join(path)] = dict(node.variables)
    return out


def fsm_locations(state: SystemState) -> dict:
    """Current location of every state machine (live or frozen)."""
    out = {}
    for path, node, _ in iter_actors(state.top):
        if node.kind == FSM and node.curr_location is not None:
            out[".".join(path)] = node.curr_location
    return out
