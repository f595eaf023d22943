"""State commitment after the fixed point, and model initialization.

The fixed point only computes port statuses and firing decisions; this
module turns those into the next system state.  Machines that fired move
to their target location and apply their variable updates (all update
expressions are evaluated against the pre-commit environment, so updates
within one transition are simultaneous).  Clocks that ticked reschedule
themselves, delays forward their input as a future event, and
variable-setting actors write into the enclosing composite's store.
Frozen refinements commit nothing.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import UnknownVariableTarget
from .events import EMPTY_QUEUE, Event, EventQueue
from .expr import eval_expr
from .model import (
    CLOCK,
    COMPOSITE,
    DELAY,
    FSM,
    IN,
    MODAL,
    OUT,
    SETVAR,
    ActorNode,
    Port,
    PortRef,
    iter_actors,
    normalize,
    validate,
)
from .network import network_of
from .state import SystemState
from .util import FrozenMap, time_amount
from .values import IntVal, Present, TimeVal


def _amount(value) -> Fraction:
    """The exact rational inside a time-like parameter value."""
    if isinstance(value, (IntVal, TimeVal)):
        return time_amount(value.value)
    return time_amount(value)


def _reset(node: ActorNode) -> ActorNode:
    """Every port unknown, every actor enabled, machines in their initial locations."""
    ports = tuple(Port(p.name, p.direction) for p in node.ports)
    if node.kind == FSM:
        return replace(node, ports=ports, curr_location=node.init_location, enabled=True)
    if node.kind in (COMPOSITE, MODAL):
        inner = tuple(_reset(c) for c in node.inner)
        node = replace(node, ports=ports, inner=inner, enabled=True)
        if node.kind == MODAL:
            node = _apply_mode(node, node.child(node.controller).curr_location)
        return node
    return replace(node, ports=ports, enabled=True)


def _apply_mode(modal: ActorNode, location: str) -> ActorNode:
    """Enable exactly the refinement of ``location``; freeze the others."""
    active = modal.refinements.get(location)
    inner = []
    for child in modal.inner:
        if child.name == modal.controller:
            inner.append(child)
        else:
            inner.append(replace(child, enabled=(child.name == active)))
    return replace(modal, inner=tuple(inner))


def initialize(top: ActorNode) -> SystemState:
    """Normalize, validate, and produce the starting state.

    Machines stand in their initial locations, each modal actor has the
    matching refinement live, every port is unknown, and each live clock
    has its first tick scheduled at its offset.
    """
    top = normalize(top)
    validate(top)
    # The structure is compiled on the first step, not here.
    top = _reset(top)
    queue = EMPTY_QUEUE
    for path, node, _ in iter_actors(top, live_only=True):
        if node.kind == CLOCK:
            event = Event(PortRef(path, "output"), node.parameters["emit"])
            queue = queue.add(_amount(node.parameters["offset"]), 0, event)
    return SystemState(top, queue)


def postfire(top: ActorNode, decisions):
    """Commit one iteration.  Returns (next tree, scheduling requests).

    ``top`` must carry the resolved port statuses and ``decisions`` the
    firing decision per machine, both produced by compute_fixpoint.  The
    requests are (delay, microstep, event) triples in tree order; commit
    them with commit_requests to preserve the deterministic ordering.

    Only actors whose state changes are rebuilt, along with their
    ancestors; every other subtree is shared with ``top``.
    """
    network = network_of(top)
    nodes = network.nodes_of(top)
    live = network.live(nodes)
    changes = {}  # actor index -> with_state arguments
    composite_writes = {}  # composite index -> {variable: value}
    requests = []

    for i in network.preorder:
        if not live[i]:
            continue
        node = nodes[i]
        kind = node.kind
        path = network.paths[i]
        if kind == FSM:
            verdict, transition = decisions.get(path, ("nofire", None))
            if verdict != "fire":
                continue
            change = {}
            if transition.sets:
                env = node.statuses(IN)
                variables = dict(node.variables)
                for var, expr in transition.sets.items():
                    variables[var] = eval_expr(expr, node.variables, node.parameters, env)
                change["variables"] = FrozenMap(variables)
            if transition.target != node.curr_location:
                change["curr_location"] = transition.target
            if change:
                changes[i] = change
        elif kind == CLOCK:
            status = node.port("output", OUT).status
            if isinstance(status, Present):
                event = Event(PortRef(path, "output"), node.parameters["emit"])
                requests.append((_amount(node.parameters["period"]), 0, event))
        elif kind == DELAY:
            status = node.port("input", IN).status
            if isinstance(status, Present):
                delay = _amount(node.parameters["delay"])
                # A zero delay still takes one microstep: strictly later in
                # superdense time, same timestamp.
                microstep = 1 if delay == 0 else 0
                requests.append((delay, microstep, Event(PortRef(path, "output"), status.value)))
        elif kind == SETVAR:
            status = node.port("input", IN).status
            if isinstance(status, Present):
                target = node.parameters["target"].value
                scope = network.scope[i]
                if scope is None:
                    raise UnknownVariableTarget(f"{'.'.join(path)}: no enclosing composite")
                composite_writes.setdefault(scope, {})[target] = status.value

    # The refinement that matches each controller's new location becomes
    # live from the next iteration on (frozen modal actors included).
    for info in network.modals:
        ctrl = info.controller
        location = changes.get(ctrl, {}).get("curr_location", nodes[ctrl].curr_location)
        active = info.refinements.get(location)
        for child, name in info.others:
            enabled = name == active
            if nodes[child].enabled != enabled:
                changes.setdefault(child, {})["enabled"] = enabled

    # Rebuild the changed actors and their ancestors, bottom up; every
    # other subtree is shared.
    dirty = set()
    for i in (*changes, *composite_writes):
        while i >= 0 and i not in dirty:
            dirty.add(i)
            i = network.parent[i]
    if not dirty:
        return top, requests

    def rebuild(i):
        node = nodes[i]
        change = changes.get(i, {})
        kids = [c for c in network.children[i] if c in dirty]
        if kids:
            inner = list(node.inner)
            first = network.children[i][0]
            for c in kids:
                inner[c - first] = rebuild(c)
            change["inner"] = tuple(inner)
        if i in composite_writes:
            variables = dict(node.variables)
            for var, value in composite_writes[i].items():
                if var not in variables:
                    path = ".".join(network.paths[i])
                    raise UnknownVariableTarget(f"{path} has no variable '{var}'")
                variables[var] = value
            change["variables"] = FrozenMap(variables)
        return node.with_state(**change)

    return rebuild(0), requests


def commit_requests(queue: EventQueue, requests) -> EventQueue:
    """Fold scheduling requests into the queue, in the order given."""
    for delay, microstep, event in requests:
        queue = queue.add(delay, microstep, event)
    return queue
