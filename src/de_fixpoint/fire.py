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
network.py) once per mode, when a state in it first resolves an instant,
and kept on the mode; a port -> rule index tells the fixed point which
rules to run again when a port resolves.  They read and write a flat
list of port statuses indexed by port id, in which an unknown port
always holds the one UNKNOWN object (``Network.flatten`` sees to that
for trees), and state machines read their location and variables from
the state's slots; guards and outputs are compiled closures (see
expr.compile_expr).

Every phase takes a system state and nothing else.  The executor runs
a fresh instant in one call, ``compute_fixpoint(state, events=...)``;
``clear_ports`` then ``deliver_events`` reach the same starting point in
two stages, and are the reference the fused call is tested against.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .errors import CausalityCycle, NondeterministicFsm, ValidationError
from .model import CLOCK, COMPOSITE, DELAY, FSM, IN, MODAL, OUT
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
    """
    outgoing = info.outgoing[location]
    for entry in outgoing:
        if entry.blind:
            return _UNDECIDED
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
#
# Every rule exposes step(statuses, locations, values, decided) ->
# [(port id, status), ...]; it may only propose assignments for
# currently-unknown ports, and must propose the same ultimate value no
# matter when it runs.  ``reads`` lists the ports whose resolution can
# change what it proposes.


class _CopyRule:
    """Connection propagation: a known source status flows to its sinks."""

    def __init__(self, src: int, sinks, depth: int):
        self.src = src
        self.sinks = tuple(sinks)
        self.depth = depth
        self.reads = (src,)

    def step(self, st, locations, values, decided):
        s = st[self.src]
        if s is UNKNOWN:
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

    The machine's current location and variables come from the state's
    slots; the decision, once made, is kept in ``decided`` for the rest
    of the iteration, since growing port knowledge can no longer change it.
    """

    def __init__(self, index: int, path, network: Network):
        info = network.fsms[index]
        self.info = info
        self.index = index
        self.path = path
        self.depth = len(path)
        coupled = frozenset(network.coupled.get(index, ()))
        # (output name, its port id, the twin input's port id when coupled)
        self.outputs = tuple(
            (name, pid, info.in_ids[name] if name in coupled else None)
            for name, pid in info.out_ids.items()
        )
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
                if reads is not None and all(st[p] is not UNKNOWN for p in reads):
                    out.append((pid, Present(fn(st, values))))
            elif twin is not None:
                status = st[twin]
                if status is not UNKNOWN:
                    out.append((pid, status))
            else:
                out.append((pid, ABSENT))
        return out


class RuleSet:
    """The rules of one mode, and what they depend on."""

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
        # A fresh instant starts from ``blank`` with the events delivered:
        # every unwritten port absent, every other port unknown.  If no
        # event lands on a live port outside ``unwritten``, it also starts
        # from ``schedule``: the machines and the readers of unwritten ports.
        self.blank = [UNKNOWN] * network.size
        for pid in self.unwritten:
            self.blank[pid] = ABSENT
        self.unwritten_set = frozenset(self.unwritten)
        self.port_set = frozenset(self.ports)
        initial = set(self.machines)
        for pid in self.unwritten:
            initial.update(self.dependents[pid])
        self.schedule = tuple(sorted(initial))


def build_rules(network: Network, mode: Mode) -> RuleSet:
    """Compile the live region of a mode into rules plus the port universe."""
    live = mode.live
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
    modals = {info.index: (info, refinement) for info, refinement in zip(network.modals, mode.selected)}
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
            produced.update(rule.info.out_ids.values())
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

    Without ``events`` the state's port statuses are the starting point
    (as prepared by clear_ports and deliver_events).  With them, the
    instant starts afresh: every port is unknown except the targets of
    ``events``, (port id, Present(value)) pairs, exactly as clear_ports
    then deliver_events would leave it.  Ports no rule writes
    (event-sourced outputs with no event due, unconnected ports) are then
    set absent.

    The fixed point is a worklist over the rule set of the state's mode,
    built once and kept on the mode.  The initial schedule holds every
    state machine's rule and every rule that reads a port already known,
    deepest actors first.  When a rule resolves a port, the rules
    that read it (looked up in the rule set's port -> rule index) are
    queued again unless already pending, so a rule runs only when
    something it reads has changed.  The worklist empties exactly when
    no rule can change anything more.  ``rng`` (a random.Random) shuffles
    the initial schedule; the result must not depend on it.

    Unknown ports at quiescence raise CausalityCycle unless
    ``bottom_as_absent``, in which case they are forced absent and any
    still-undecided machine counts as not firing.  Frozen ports keep what
    they started with: their own statuses, or, for a fresh instant,
    unknown unless an event was delivered there.
    """
    network = state.network
    locations, values = state.locations, state.values
    mode = state.mode
    rule_set = mode.rules
    if rule_set is None:
        rule_set = mode.rules = build_rules(network, mode)
    dependents = rule_set.dependents
    if events is not None:
        # A fresh instant: delivery, the absent fill and the initial
        # schedule as the general case below would make them.
        st = list(rule_set.blank)
        applications = known = len(rule_set.unwritten)
        extra = None
        actor = network.port_actor
        for pid, status in events:
            if not mode.live[actor[pid]]:
                _frozen_delivery(network, pid)
            elif pid in rule_set.unwritten_set:
                applications -= 1
            elif pid in rule_set.port_set:
                known += 1
                extra = (extra or set()).union(dependents[pid])
            st[pid] = status
        schedule = list(rule_set.schedule) if extra is None else sorted(extra.union(rule_set.schedule))
    else:
        st = list(state.statuses)
        applications = 0
        for pid in rule_set.unwritten:
            if st[pid] is UNKNOWN:
                st[pid] = ABSENT
                applications += 1
        initial = set(rule_set.machines)
        known = 0
        for pid in rule_set.ports:
            if st[pid] is not UNKNOWN:
                known += 1
                initial.update(dependents[pid])
        schedule = sorted(initial)
    if rng is not None:
        rng.shuffle(schedule)
    rules = rule_set.rules
    pending = deque(schedule)
    pop, push = pending.popleft, pending.append
    queued = [False] * len(rules)
    for n in schedule:
        queued[n] = True
    decided = {}
    # Rules write only live ports, each at most once: every application
    # from here on resolves one more of ``rule_set.ports``.
    known -= applications
    while pending:
        n = pop()
        queued[n] = False
        for pid, status in rules[n].step(st, locations, values, decided):
            old = st[pid]
            if old is not UNKNOWN:
                if old != status:
                    raise AssertionError(
                        f"port {_key_text(network.keys[pid])} driven to two different statuses"
                    )
                continue
            st[pid] = status
            applications += 1
            for d in dependents[pid]:
                if not queued[d]:
                    queued[d] = True
                    push(d)

    # Firing decisions are read off at quiescence, before any fallback:
    # a machine that could not decide did not fire.  Each machine's rule
    # ran after its last input resolved, so its last verdict is final.
    fired = {}
    for n in rule_set.machines:
        index = rules[n].index
        kind, entry = decided[index]
        if kind == "fire":
            fired[index] = entry

    if known + applications < len(rule_set.ports):
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
