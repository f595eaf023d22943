"""Per-instant port resolution as a monotone fixed point.

Each iteration starts with every port unknown, delivers the events due
now, and then resolves ports until nothing changes.  Ports move at most
once, from unknown to present-with-a-value or absent, and nothing that
resolves them looks at anything but port statuses (and the state of the
machine it drives), so the final assignment is independent of the order
in which it happens (checked by the test suite with randomized orders).

A port left unknown at the fixed point means the model has a genuine
causality cycle; that is an error unless the caller opts into treating
the leftovers as absent.

Frozen refinements (and everything below them) take no part: their
ports are in no net, their state machines make no firing decision, and
events addressed into them land on the port but drive nothing.

Wires only move a status along, so they are not rules.  The network
records every wire once, as a (source port id, sink port id) pair (see
network.py); in a mode a wire is live when both its ports' actors are.
The live wires fold into each port's *reach*: the port itself, then
every live port downstream of it.  Writing a status anywhere (a
delivered event, the absent fill of a port nothing writes, a machine's
output) sets the port's whole reach at once.  The only rules are the
state machines, and each runs at least once per instant.

Reaches and rules are static.  They are built from the compiled network
once per mode, when a state in it first resolves an instant, and kept
on the mode; a port -> rule index tells the fixed point which rules to
run again when a port resolves.  They read and write a flat list of
port statuses indexed by port id, in which an unknown port always holds
the one UNKNOWN object (``Network.flatten`` sees to that for trees),
and state machines read their location and variables from the state's
slots; guards and outputs are compiled closures (see
expr.compile_expr).

Every phase takes a system state and nothing else.  The executor runs
a fresh instant in one call, ``compute_fixpoint(state, events=...)``;
``clear_ports`` then ``deliver_events`` reach the same starting point in
two stages, from which ``compute_fixpoint(state)`` runs the same body.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .errors import CausalityCycle, NondeterministicFsm, ValidationError
from .model import FSM
from .network import FsmInfo, Mode, Network
from .state import SystemState, make_state
from .values import ABSENT, UNKNOWN, BoolVal, Present

# Bound only for bench/spans.py, which wraps it by this name, until the
# bench reads counters instead (ROADMAP item 3); no step calls it.
from .network import map_ports  # noqa: F401

log = logging.getLogger(__name__)

# A port is addressed by (actor path, port name, direction).
PortKey = tuple


def _key_text(key: PortKey) -> str:
    path, name, direction = key
    return f"{'.'.join(path)}.{name}({direction})"


def _with_statuses(state: SystemState, statuses) -> SystemState:
    return make_state(
        state.network,
        state.mode,
        state.locations,
        state.values,
        statuses,
        state.entries,
        state.now,
        state.microstep_of_instant,
    )


def clear_ports(state: SystemState) -> SystemState:
    """Reset every port (frozen subtrees included) to unknown."""
    return _with_statuses(state, (UNKNOWN,) * state.network.size)


def deliver_events(state: SystemState, events) -> SystemState:
    """Write the values of due events onto their target output ports.

    ``events`` are (port id, Present(value)) pairs, as a queue entry
    holds them.  Every scheduled event addresses the output port of the
    actor that produced it (clocks and delays); propagation to readers is
    the fixed point's job.  Deliveries into frozen subtrees still set the
    port (the value is genuinely there) but nothing reacts to it.
    """
    network = state.network
    live = state.mode.live
    actor = network.port_actor
    statuses = list(state.statuses)
    for pid, status in events:
        if not live[actor[pid]]:
            _frozen_delivery(network, pid)
        statuses[pid] = status
    return _with_statuses(state, tuple(statuses))


def _frozen_delivery(network: Network, pid: int) -> None:
    path, port, _ = network.keys[pid]
    log.info("event for %s.%s lands in a frozen refinement; it will drive nothing", ".".join(path), port)


# Firing decisions. ----------------------------------------------------------

_UNDECIDED = (None, None)
_NOFIRE = ("nofire", None)


def decide_firing(info: FsmInfo, location, st, values):
    """Decide whether a state machine fires this iteration.

    ``st`` holds every port's status by port id and ``values`` every
    variable's value by slot.  Returns ("fire", transition) with the
    compiled transition that fires, ("nofire", None), or (None, None)
    when the decision still depends on ports that are unknown.  Raises
    NondeterministicFsm when the machine would fire with more than one
    true guard.  The decision is stable: once it returns a non-None
    verdict, growing port knowledge can never change it.

    The machine comes from a validated tree, so every port a guard
    reads is one of its inputs, and ``reads`` lists them all.
    """
    outgoing = info.outgoing[location]
    for entry in outgoing:
        for pid in entry.reads:
            if st[pid] is UNKNOWN:
                # Guards only mention the machine's own inputs, so all
                # inputs known would imply evaluable; nothing can be
                # decided yet.
                return _UNDECIDED
    any_present = False
    all_known = True
    for pid in info.in_pids:
        status = st[pid]
        if isinstance(status, Present):
            any_present = True
        elif status is UNKNOWN:
            all_known = False
    trues = []
    for entry in outgoing:
        v = entry.guard(st, values)
        if not isinstance(v, BoolVal):
            t = entry.transition
            raise ValidationError([f"{info.label}: guard of {t.source}->{t.target} is not boolean"])
        if v.value:
            trues.append(entry)
    if len(trues) >= 2 and any_present:
        raise NondeterministicFsm(info.label, [(e.transition.source, e.target) for e in trues])
    if not trues:
        return _NOFIRE
    if len(trues) == 1 and any_present:
        return ("fire", trues[0])
    if all_known and not any_present:
        # Every input is known absent: the machine cannot fire.
        return _NOFIRE
    return _UNDECIDED


# Rules. ---------------------------------------------------------------------


class _FsmRule:
    """Drive a state machine's outputs from its (stable) firing decision.

    ``step(statuses, locations, values, decided)`` returns [(port id,
    status), ...] for outputs it can resolve now; it proposes only
    currently-unknown ports, and the same status whenever it runs.
    ``reads`` lists the ports whose resolution can change what it proposes.

    Until the decision resolves, outputs stay unknown.  Once it does:
    on a firing, each output named by the transition gets the evaluated
    expression (as soon as every port the expression reads is known) and
    every other plain output is absent; without a firing, every plain
    output is absent.  Outputs that double as a modal actor's outputs
    (the controller's coupled pairs) are special: when not named by the
    taken transition they relay the refinement's value, so they copy the
    twin input port instead of going absent.

    The machine's current location and variables come from the state's
    slots; the decision, once made, is kept in ``decided`` for the rest
    of the iteration, since growing port knowledge can no longer change it.
    """

    def __init__(self, index: int, network: Network):
        info = network.fsms[index]
        self.info = info
        self.index = index
        self.depth = len(network.paths[index])
        twins = network.coupled.get(index, {})
        # (output name, its port id, the twin input's port id when coupled)
        self.outputs = tuple((name, pid, twins.get(name)) for name, pid in info.out_ids.items())
        self.reads = info.in_pids

    def step(self, st, locations, values, decided):
        index = self.index
        verdict = decided.get(index)
        if verdict is None or verdict[0] is None:
            verdict = decided[index] = decide_firing(self.info, locations[index], st, values)
        kind, entry = verdict
        if kind is None:
            return ()
        named = entry.outputs if kind == "fire" else {}
        out = []
        for name, pid, twin in self.outputs:
            if st[pid] is not UNKNOWN:
                continue
            if name in named:
                fn, reads = named[name]
                if all(st[p] is not UNKNOWN for p in reads):
                    out.append((pid, Present(fn(st, values))))
            elif twin is not None:
                status = st[twin]
                if status is not UNKNOWN:
                    out.append((pid, status))
            else:
                out.append((pid, ABSENT))
        return out


@dataclass
class RuleSet:
    """What the fixed point needs of one mode, built once by build_rules.

    ``rules``: one rule per live state machine, deepest actors first;
    ``ports``: every live port, each of which the fixed point must resolve;
    ``unwritten``: the live ports that no machine writes and no live wire
    feeds (clock and delay outputs, unconnected ports), absent unless an
    event lands there;
    ``reach``: by port id, for each live port, the port itself and then
    every live port downstream of it (None for frozen ports);
    ``dependents``: by port id, the indices of the rules that read it.
    """

    rules: tuple
    ports: tuple
    unwritten: tuple
    reach: list
    dependents: list


def build_rules(network: Network, mode: Mode) -> RuleSet:
    """Compile the live region of a mode: its machines' rules and its nets.

    A wire is live when both its ports' actors are.  Live wires only ever
    move a status along, so they are folded into each port's reach, and
    a write sets a whole net at once; a loop of wires stays unknown.
    """
    live = mode.live
    actor = network.port_actor
    ports = tuple(pid for i in network.preorder if live[i] for pid in network.port_ids[i])
    # Deeper actors get their turn first; the result does not depend on
    # this (confluence), it just settles inner models before their parents.
    rules = sorted(
        (_FsmRule(i, network) for i in network.preorder if live[i] and network.kinds[i] == FSM),
        key=lambda r: -r.depth,
    )
    downstream = {}
    for src, sink in network.wires:
        if live[actor[src]] and live[actor[sink]]:
            downstream.setdefault(src, []).append(sink)
    written = {sink for sinks in downstream.values() for sink in sinks}
    for rule in rules:
        written.update(rule.info.out_ids.values())
    reach = [None] * network.size
    for pid in ports:
        net = [pid]
        for p in net:
            for q in downstream.get(p, ()):
                if q not in net:
                    net.append(q)
        reach[pid] = tuple(net)
    dependents = [[] for _ in range(network.size)]
    for n, rule in enumerate(rules):
        for pid in rule.reads:
            dependents[pid].append(n)
    unwritten = tuple(pid for pid in ports if pid not in written)
    return RuleSet(tuple(rules), ports, unwritten, reach, [tuple(ns) for ns in dependents])


@dataclass
class FixpointResult:
    """One resolved instant: ``state`` with the resolved port statuses, and
    ``decisions`` mapping each firing machine's actor index to its compiled
    transition."""

    decisions: dict
    applications: int
    stalled_ports: tuple  # ports that needed the absent fallback, () if none
    state: SystemState


def compute_fixpoint(state: SystemState, bottom_as_absent: bool = False, rng=None, events=None) -> FixpointResult:
    """Resolve one instant of a system state.

    The instant starts from what is known before the absent fill.
    Without ``events`` that is the state's port statuses (as prepared by
    clear_ports and deliver_events).  With them, the instant starts
    afresh: every port is unknown except the targets of ``events``,
    (port id, Present(value)) pairs, exactly as clear_ports then
    deliver_events would leave it.  From either start one body runs.

    Every live port known at the start is written through its reach,
    and so is ABSENT on every unwritten port still unknown.  Then the
    machines' rules of the state's mode (built once and kept on the
    mode) run from a worklist that starts with all of them, deepest
    actors first; ``rng`` (a random.Random) shuffles that start, and the
    result must not depend on it.  Each status a rule proposes is
    written through the port's reach, and every port it resolves queues
    the rules that read it unless already pending.  A write that finds a
    port of its reach known with another status raises AssertionError:
    two drivers disagree.  ``applications`` counts the ports resolved
    after the start.

    Unknown ports at quiescence raise CausalityCycle unless
    ``bottom_as_absent``, in which case they are forced absent and any
    still-undecided machine counts as not firing.  Frozen ports keep what
    they started with: their own statuses, or, for a fresh instant,
    unknown unless an event was delivered there.
    """
    network = state.network
    mode = state.mode
    rule_set = mode.rules
    if rule_set is None:
        rule_set = mode.rules = build_rules(network, mode)
    if events is None:
        st = list(state.statuses)
        known = [(pid, st[pid]) for pid in rule_set.ports if st[pid] is not UNKNOWN]
    else:
        st = [UNKNOWN] * network.size
        known = []
        live, actor = mode.live, network.port_actor
        for pid, status in events:
            st[pid] = status
            if live[actor[pid]]:
                known.append((pid, status))
            else:
                _frozen_delivery(network, pid)
    resolved = len(known)
    writes = known + [(pid, ABSENT) for pid in rule_set.unwritten if st[pid] is UNKNOWN]
    rules, reach, dependents = rule_set.rules, rule_set.reach, rule_set.dependents
    schedule = list(range(len(rules)))
    if rng is not None:
        rng.shuffle(schedule)
    pending = deque(schedule)
    pop, push = pending.popleft, pending.append
    queued = [True] * len(rules)
    locations, values = state.locations, state.values
    decided = {}
    while True:
        for pid, status in writes:
            for q in reach[pid]:
                old = st[q]
                if old is UNKNOWN:
                    st[q] = status
                    resolved += 1
                    for d in dependents[q]:
                        if not queued[d]:
                            queued[d] = True
                            push(d)
                elif old != status:
                    raise AssertionError(f"port {_key_text(network.keys[q])} driven to two different statuses")
        if not pending:
            break
        n = pop()
        queued[n] = False
        writes = rules[n].step(st, locations, values, decided)

    # Firing decisions are read off at quiescence, before any fallback:
    # a machine that could not decide did not fire.  Each machine's rule
    # ran after its last input resolved, so its last verdict is final.
    fired = {}
    for rule in rules:
        kind, entry = decided[rule.index]
        if kind == "fire":
            fired[rule.index] = entry

    applications = resolved - len(known)
    if resolved < len(rule_set.ports):
        stalled = [pid for pid in rule_set.ports if st[pid] is UNKNOWN]
        keys = sorted(network.keys[pid] for pid in stalled)
        if not bottom_as_absent:
            raise CausalityCycle([_key_text(k) for k in keys])
        log.warning(
            "%d port(s) left unknown; treating as absent: %s",
            len(keys),
            ", ".join(_key_text(k) for k in keys),
        )
        for pid in stalled:
            st[pid] = ABSENT
        stalled = tuple(keys)
    else:
        stalled = ()
    return FixpointResult(fired, applications, stalled, _with_statuses(state, tuple(st)))
