"""Per-instant port resolution as a monotone fixed point.

Each iteration starts with every port unknown, delivers the events due
now, and then applies propagation rules until nothing changes.  Ports
move at most once, from unknown to present-with-a-value or absent, and
no rule ever looks at anything but port statuses (and the state of the
machine it drives), so the final assignment is independent of rule
application order (checked by the test suite with randomized orders).

A port left unknown at the fixed point means the model has a genuine
causality cycle; that is an error unless the caller opts into treating
the leftovers as absent.

Frozen refinements (and everything below them) take no part: no rules
are built for them, their state machines make no firing decision, and
events addressed into them land on the port but drive nothing.

Rules are static.  They are built from the compiled network (see
network.py) once per mode configuration, i.e. per set of live actors,
and a port -> rule index tells the fixed point which rules to run again
when a port resolves.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .errors import CausalityCycle, NoSuchPort
from .expr import eval_expr
from .model import (
    CLOCK,
    COMPOSITE,
    DELAY,
    FSM,
    IN,
    MODAL,
    OUT,
    ActorNode,
    decide_firing,
)
from .network import Network, map_ports, network_of
from .values import ABSENT, UNKNOWN, Present, Unknown, is_known

log = logging.getLogger(__name__)

# A port is addressed by (actor path, port name, direction).
PortKey = tuple


def _key_text(key: PortKey) -> str:
    path, name, direction = key
    return f"{'.'.join(path)}.{name}({direction})"


def clear_ports(top: ActorNode) -> ActorNode:
    """Reset every port (frozen subtrees included) to unknown."""
    return map_ports(top, [UNKNOWN] * network_of(top).size)


def deliver_events(top: ActorNode, events) -> ActorNode:
    """Write the values of due events onto their target output ports.

    Every scheduled event addresses the output port of the actor that
    produced it (clocks and delays); propagation to readers is the fixed
    point's job.  Deliveries into frozen subtrees still set the port (the
    value is genuinely there) but nothing reacts to it.
    """
    network = network_of(top)
    nodes = network.nodes_of(top)
    deliveries = _deliveries(network, network.live(nodes), events)
    if not deliveries:
        return top
    statuses = network.statuses_of(nodes)
    for pid, status in deliveries:
        statuses[pid] = status
    return map_ports(top, statuses)


def _deliveries(network: Network, live, events) -> list:
    """[(port id, Present(value))] for the events, each target checked."""
    out = []
    for ev in events:
        i = network.index.get(ev.target.actor)
        if i is None:
            raise NoSuchPort(repr(ev.target))
        pid = network.ids.get((ev.target.actor, ev.target.port, OUT))
        if pid is None:
            raise NoSuchPort(f"{ev.target!r} is not an output port")
        if not live[i]:
            log.info("event for %r lands in a frozen refinement; it will drive nothing", ev.target)
        out.append((pid, Present(ev.value)))
    return out


# Rules. ---------------------------------------------------------------------
#
# Every rule exposes step(statuses, nodes, decided) -> [(port id, status), ...];
# it may only propose assignments for currently-unknown ports, and must
# propose the same ultimate value no matter when it runs.  ``reads`` lists
# the ports whose resolution can change what it proposes.


class _CopyRule:
    """Connection propagation: a known source status flows to its sinks."""

    def __init__(self, src: int, sinks, depth: int):
        self.src = src
        self.sinks = tuple(sinks)
        self.depth = depth
        self.reads = (src,)

    def step(self, st, nodes, decided):
        s = st[self.src]
        if isinstance(s, Unknown):
            return ()
        # Known sinks are proposed too: the driver loop cross-checks them,
        # so a second writer racing a port is caught instead of silently
        # making the result order-dependent.
        return [(k, s) for k in self.sinks]


class _FsmRule:
    """Drive a state machine's outputs from its (stable) firing decision.

    Until the decision resolves, outputs stay unknown.  Once it does:
    on a firing, each output named by the transition gets the evaluated
    expression (as soon as every port the expression reads is known) and
    every other plain output is absent; without a firing, every plain
    output is absent.  Outputs that double as a modal actor's outputs
    (the controller's coupled pairs) are special: when not named by the
    taken transition they relay the refinement's value, so they copy the
    twin input port instead of going absent.

    The machine's current location and variables come from ``nodes``;
    the decision, once made, is kept in ``decided`` for the rest of the
    iteration, since growing port knowledge can no longer change it.
    """

    def __init__(self, index: int, path, network: Network):
        info = network.fsms[index]
        self.index = index
        self.path = path
        self.depth = len(path)
        self.coupled = frozenset(network.coupled.get(index, ()))
        self.label = ".".join(path)
        self.in_ids = info.in_ids
        self.out_ids = info.out_ids
        self.outgoing = info.outgoing
        self.reads = tuple(info.in_ids.values())

    def inputs(self, st):
        return {name: st[pid] for name, pid in self.in_ids.items()}

    def decide(self, st, node, decided):
        verdict = decided.get(self.index)
        if verdict is None or verdict[0] is None:
            outgoing = self.outgoing.get(node.curr_location, ())
            verdict = decide_firing(outgoing, node, self.inputs(st), self.label)
            decided[self.index] = verdict
        return verdict

    def step(self, st, nodes, decided):
        node = nodes[self.index]
        verdict, entry = self.decide(st, node, decided)
        if verdict is None:
            return ()
        if verdict == "fire":
            named, reads = entry[0].outputs, entry[2]
        else:
            named, reads = {}, {}
        inputs = None
        out = []
        for name, pid in self.out_ids.items():
            if not isinstance(st[pid], Unknown):
                continue
            if name in named:
                if inputs is None:
                    inputs = self.inputs(st)
                if all(is_known(inputs.get(p, UNKNOWN)) for p in reads[name]):
                    value = eval_expr(named[name], node.variables, node.parameters, inputs)
                    out.append((pid, Present(value)))
            elif name in self.coupled:
                twin = st[self.in_ids[name]]
                if is_known(twin):
                    out.append((pid, twin))
            else:
                out.append((pid, ABSENT))
        return out


class RuleSet:
    """The rules of one mode configuration, and what they depend on."""

    def __init__(self, network: Network, rules, ports, unwritten):
        # Deeper actors get their turn first; the result does not depend on
        # this (confluence), it just settles inner models before their parents.
        self.rules = sorted(rules, key=lambda r: -r.depth)
        self.ports = tuple(ports)  # every port id the fixed point must resolve
        # Ports no rule writes: event-sourced outputs (clocks, delays) with
        # no event due, and ports nothing is connected to.  They are absent.
        self.unwritten = tuple(unwritten)
        # State machines may decide before any input resolves (a guard can
        # read no port), so their rules always run at least once.
        self.machines = tuple(n for n, r in enumerate(self.rules) if isinstance(r, _FsmRule))
        # Port id -> the rules that read it.
        dependents = [[] for _ in range(network.size)]
        for n, rule in enumerate(self.rules):
            for pid in rule.reads:
                dependents[pid].append(n)
        self.dependents = [tuple(ns) for ns in dependents]


def build_rules(network: Network, live, selected) -> RuleSet:
    """Compile the live region of the network into rules plus the port universe.

    ``live`` flags each actor as live; ``selected`` names, per modal actor,
    the refinement its controller's location picks (None if none).
    """
    rules = []
    ports = []
    produced = set()
    event_sourced = []

    for i in network.preorder:
        if live[i]:
            ports.extend(network.port_ids[i])
    live_ports = set(ports)

    def add_copy(src, sinks, depth):
        # Sinks inside frozen refinements are simply not fed.
        sinks = [k for k in sinks if k in live_ports]
        if sinks:
            rules.append(_CopyRule(src, sinks, depth))
            produced.update(sinks)

    ids = network.ids
    modals = {info.index: (info, refinement) for info, refinement in zip(network.modals, selected)}
    for i in network.preorder:
        if not live[i]:
            continue
        path = network.paths[i]
        kind = network.kinds[i]
        if kind in (CLOCK, DELAY):
            pid = ids[(path, "output", OUT)]
            event_sourced.append(pid)
            produced.add(pid)
        elif kind == FSM:
            rule = _FsmRule(i, path, network)
            rules.append(rule)
            produced.update(rule.out_ids.values())
        if kind in (COMPOSITE, MODAL):
            for src, sinks in network.copies[i]:
                add_copy(src, sinks, len(network.keys[src][0]))
        if kind == MODAL:
            info, refinement = modals[i]
            ctrl = network.paths[info.controller]
            for q in info.outputs:
                # The live refinement's output feeds the controller's twin input,
                # and the controller's output is what the modal actor shows.
                if refinement is not None and live[refinement]:
                    inner = network.paths[refinement]
                    add_copy(ids[(inner, q, OUT)], [ids[(ctrl, q, IN)]], len(inner))
                add_copy(ids[(ctrl, q, OUT)], [ids[(path, q, OUT)]], len(ctrl))

    # Event-sourced outputs (clocks, delays) are fed by delivery before the
    # fixed point starts; unknown there means no event was due, i.e. absent.
    unwritten = tuple(event_sourced) + tuple(k for k in ports if k not in produced)
    return RuleSet(network, rules, ports, unwritten)


def _rule_set(network: Network, nodes, live) -> RuleSet:
    """The cached rules for the tree's mode configuration."""
    selected = tuple(
        info.refinement(nodes[info.controller].curr_location) for info in network.modals
    )
    mode = (tuple(live), selected)
    rule_set = network.rule_sets.get(mode)
    if rule_set is None:
        rule_set = network.rule_sets[mode] = build_rules(network, live, selected)
    return rule_set


@dataclass
class FixpointResult:
    top: ActorNode
    decisions: dict  # fsm path -> ("fire", Transition) | ("nofire", None)
    applications: int
    stalled_ports: tuple  # ports that needed the absent fallback ((),) if none


def compute_fixpoint(
    top: ActorNode, bottom_as_absent: bool = False, rng=None, events=None
) -> FixpointResult:
    """Resolve one instant and return the resolved tree and decisions.

    Without ``events`` the tree's live port statuses are the starting
    point (as prepared by clear_ports and deliver_events).  With them,
    the instant starts afresh: every port is unknown except the targets
    of ``events``, exactly as clear_ports then deliver_events would leave
    it, without building either tree.  Ports no rule writes (event-sourced
    outputs with no event due, unconnected ports) are then set absent.

    The fixed point is a worklist over the rule set of the tree's mode
    configuration, built once and cached.  The initial schedule holds
    every state machine's rule and every rule that reads a port already
    known, deepest actors first.  When a rule resolves a port, the rules
    that read it (looked up in the rule set's port -> rule index) are
    queued again unless already pending, so a rule runs only when
    something it reads has changed.  The worklist empties exactly when
    no rule can change anything more.  ``rng`` (a random.Random) shuffles
    the initial schedule; the result must not depend on it.

    Unknown ports at quiescence raise CausalityCycle unless
    ``bottom_as_absent``, in which case they are forced absent and any
    still-undecided machine counts as not firing.
    """
    network = network_of(top)
    nodes = network.nodes_of(top)
    live = network.live(nodes)
    rule_set = _rule_set(network, nodes, live)
    if events is None:
        statuses = network.statuses_of(nodes)
    else:
        statuses = [UNKNOWN] * network.size
        for pid, status in _deliveries(network, live, events):
            statuses[pid] = status

    applications = 0
    for pid in rule_set.unwritten:
        if isinstance(statuses[pid], Unknown):
            statuses[pid] = ABSENT
            applications += 1

    rules = rule_set.rules
    dependents = rule_set.dependents
    initial = set(rule_set.machines)
    for pid in rule_set.ports:
        if not isinstance(statuses[pid], Unknown):
            initial.update(dependents[pid])
    schedule = sorted(initial)
    if rng is not None:
        rng.shuffle(schedule)
    pending = deque(schedule)
    queued = [False] * len(rules)
    for n in schedule:
        queued[n] = True
    decided = {}
    while pending:
        n = pending.popleft()
        queued[n] = False
        for pid, status in rules[n].step(statuses, nodes, decided):
            old = statuses[pid]
            if not isinstance(old, Unknown):
                if old != status:
                    raise AssertionError(
                        f"port {_key_text(network.keys[pid])} driven to two different statuses"
                    )
                continue
            statuses[pid] = status
            applications += 1
            for d in dependents[pid]:
                if not queued[d]:
                    queued[d] = True
                    pending.append(d)

    # Firing decisions are read off at quiescence, before any fallback:
    # a machine that could not decide did not fire.  Each machine's rule
    # ran after its last input resolved, so its last verdict is final.
    decisions = {}
    for n in rule_set.machines:
        rule = rules[n]
        verdict, entry = decided[rule.index]
        decisions[rule.path] = ("fire", entry[0]) if verdict == "fire" else ("nofire", None)

    stalled = [pid for pid in rule_set.ports if isinstance(statuses[pid], Unknown)]
    if stalled:
        keys = sorted(network.keys[pid] for pid in stalled)
        if not bottom_as_absent:
            raise CausalityCycle([_key_text(k) for k in keys])
        log.warning(
            "%d port(s) left unknown; treating as absent: %s",
            len(keys),
            ", ".join(_key_text(k) for k in keys),
        )
        for pid in stalled:
            statuses[pid] = ABSENT
        stalled = tuple(keys)
    else:
        stalled = ()

    # Frozen ports keep what they started with: their own statuses, or,
    # for a fresh instant, unknown unless an event was delivered there.
    return FixpointResult(map_ports(top, statuses), decisions, applications, stalled)
