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
delivered event, the absent of a port nothing writes, a machine's
output) sets the port's whole reach at once.  The only rules are the
state machines.

Everything static about an instant is built from the compiled network
once per mode, when a state in it first resolves an instant, and kept
on the mode (``RuleSet``):

* the start: a status list in which the reach of every port that
  nothing writes is already ABSENT.  An instant copies it and writes
  only its events, so it costs what its events touch, not what the
  model holds;
* the schedule: rule A feeds rule B when a port in the reach of one of
  A's outputs is one B reads.  The strongly connected parts of that
  graph run in topological order, ties going to the deepest actors (a
  static schedule, as for synchronous block diagrams: Edwards & Lee,
  SCP 48, 2003).  A rule on no cycle runs once, when everything it
  reads is settled, and decides once.  Only a cycle iterates, with a
  worklist confined to it (Bourdoncle, 1993), where decisions may stay
  partial until its ports resolve.  A rule downstream of a cycle that
  stalls makes the one partial decision its known inputs allow.

The statuses live in a flat list indexed by port id, in which an
unknown port always holds the one UNKNOWN object (``Network.flatten``
sees to that for trees), and state machines read their location and
variables from the state's slots; guards and outputs are compiled
closures (see expr.compile_expr).

Every phase takes a system state and nothing else.  The executor runs
a fresh instant in one call, ``compute_fixpoint(state, events=...)``;
``clear_ports`` then ``deliver_events`` reach the same starting point in
two stages, from which ``compute_fixpoint(state)`` runs the same body.
"""

from __future__ import annotations

import heapq
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
_NAMES_NONE = {}  # the outputs a machine that does not fire names; never written


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
    any_present = False
    all_known = True
    for pid in info.in_pids:
        status = st[pid]
        if status is ABSENT:
            continue
        if status is UNKNOWN:
            all_known = False
        elif status.__class__ is Present:
            any_present = True
    if not all_known:
        for entry in outgoing:
            for pid in entry.reads:
                if st[pid] is UNKNOWN:
                    # Guards only mention the machine's own inputs, so all
                    # inputs known would imply evaluable; nothing can be
                    # decided yet.
                    return _UNDECIDED
    trues = []
    for entry in outgoing:
        v = entry.guard(st, values)
        if v.__class__ is not BoolVal:
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
        named = entry.outputs if kind == "fire" else _NAMES_NONE
        out = []
        for name, pid, twin in self.outputs:
            if st[pid] is not UNKNOWN:
                continue
            if name in named:
                fn, reads = named[name]
                for p in reads:
                    if st[p] is UNKNOWN:
                        break
                else:
                    out.append((pid, Present(fn(st, values))))
            elif twin is not None:
                status = st[twin]
                if status is not UNKNOWN:
                    out.append((pid, status))
            else:
                out.append((pid, ABSENT))
        return out


class _Loop:
    """Rules that read each other's outputs in one instant: a strongly
    connected part of a mode's rule graph.  ``dependents`` maps a port id
    to the positions, among ``rules``, of the rules that read it."""

    __slots__ = ("rules", "dependents")

    def __init__(self, rules):
        self.rules = rules
        dependents = {}
        for k, rule in enumerate(rules):
            for pid in rule.reads:
                dependents.setdefault(pid, []).append(k)
        self.dependents = {pid: tuple(ks) for pid, ks in dependents.items()}


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
    ``start``: by port id, the statuses an instant starts from before its
    events: ABSENT through the reach of every unwritten port, UNKNOWN
    elsewhere;
    ``owner``: by port id, the unwritten port whose reach put ABSENT there
    in ``start`` (-1 when more than one did; None where none did);
    ``absent``: how many live ports ``start`` resolves;
    ``schedule``: the order the rules run in: a rule, which runs once, or
    a ``_Loop``, settled by a worklist of its own;
    ``after``: by position in ``schedule``, the positions that read what
    it writes, which a random schedule must keep after it.
    """

    rules: tuple
    ports: tuple
    unwritten: tuple
    reach: list
    start: tuple
    owner: list
    absent: int
    schedule: tuple
    after: tuple


def build_rules(network: Network, mode: Mode) -> RuleSet:
    """Compile the live region of a mode: its machines' rules, its nets,
    the status an instant starts from, and the order the rules run in.

    A wire is live when both its ports' actors are.  Live wires only ever
    move a status along, so they are folded into each port's reach, and
    a write sets a whole net at once; a loop of wires stays unknown.

    Rule A precedes rule B when a port in the reach of one of A's outputs
    is one B reads (a controller reads its twin inputs too).  The
    strongly connected parts of that graph run in topological order, and
    of the parts ready to run, the one holding the earliest rule in
    deepest-first order goes first.  A part of one rule that does not
    read its own outputs runs once; any other part is a ``_Loop``.
    """
    live = mode.live
    actor = network.port_actor
    ports = tuple(pid for i in network.preorder if live[i] for pid in network.port_ids[i])
    # A rule holds nothing that depends on the mode, so a network keeps
    # one per machine for all its modes.
    cache = network.fsm_rules
    rules = []
    for i in network.preorder:
        if live[i] and network.kinds[i] == FSM:
            rule = cache.get(i)
            if rule is None:
                rule = cache[i] = _FsmRule(i, network)
            rules.append(rule)
    # Deeper actors first: the order that breaks ties in the schedule.  The
    # result does not depend on it (confluence); it settles inner models
    # before their parents.
    rules.sort(key=lambda r: -r.depth)
    downstream = {}
    for src, sink in network.wires:
        if live[actor[src]] and live[actor[sink]]:
            downstream.setdefault(src, []).append(sink)
    written = {sink for sinks in downstream.values() for sink in sinks}
    for rule in rules:
        written.update(rule.info.out_ids.values())
    reach = [None] * network.size
    for pid in ports:
        if pid not in downstream:
            reach[pid] = (pid,)
            continue
        net = [pid]
        for p in net:
            for q in downstream.get(p, ()):
                if q not in net:
                    net.append(q)
        reach[pid] = tuple(net)
    unwritten = tuple(pid for pid in ports if pid not in written)
    start = [UNKNOWN] * network.size
    owner = [None] * network.size
    absent = 0
    for pid in unwritten:
        for q in reach[pid]:
            if owner[q] is None:
                start[q] = ABSENT
                owner[q] = pid
                absent += 1
            else:
                owner[q] = -1
    readers = {}
    for n, rule in enumerate(rules):
        for pid in rule.reads:
            readers.setdefault(pid, []).append(n)
    succ = [
        sorted({m for pid in rule.info.out_ids.values() for q in reach[pid] for m in readers.get(q, ())})
        for rule in rules
    ]
    schedule, after = _schedule(rules, succ)
    return RuleSet(tuple(rules), ports, unwritten, reach, tuple(start), owner, absent, schedule, after)


def _schedule(rules, succ):
    """(schedule, after) over ``rules`` with successor lists ``succ``."""
    parts = _strong_components(succ)
    part_of = [0] * len(rules)
    for c, part in enumerate(parts):
        for n in part:
            part_of[n] = c
    later = [set() for _ in parts]
    waiting = [0] * len(parts)
    for n, targets in enumerate(succ):
        for m in targets:
            a, b = part_of[n], part_of[m]
            if a != b and b not in later[a]:
                later[a].add(b)
                waiting[b] += 1
    # Each part is a sorted tuple of positions, deepest first, so its
    # first member is its rank.
    ready = [(part[0], c) for c, part in enumerate(parts) if not waiting[c]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, c = heapq.heappop(ready)
        order.append(c)
        for d in later[c]:
            waiting[d] -= 1
            if not waiting[d]:
                heapq.heappush(ready, (parts[d][0], d))
    position = {c: k for k, c in enumerate(order)}
    schedule = []
    for c in order:
        part = parts[c]
        if len(part) == 1 and part[0] not in succ[part[0]]:
            schedule.append(rules[part[0]])
        else:
            schedule.append(_Loop(tuple(rules[n] for n in part)))
    after = tuple(tuple(sorted(position[d] for d in later[c])) for c in order)
    return tuple(schedule), after


def _strong_components(succ):
    """The strongly connected parts of the graph on 0..len(succ)-1 whose
    edges are ``succ``, each a sorted tuple (Tarjan's algorithm, without
    recursion)."""
    index = [None] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack, parts = [], []
    count = 0
    for root in range(len(succ)):
        if index[root] is not None:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] is None:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    part = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        part.append(w)
                        if w == v:
                            break
                    parts.append(tuple(sorted(part)))
    return parts


def _random_schedule(rule_set: RuleSet, rng):
    """Another valid order of ``rule_set.schedule``: a topological order
    with ties broken by ``rng``."""
    schedule, after = rule_set.schedule, rule_set.after
    waiting = [0] * len(schedule)
    for later in after:
        for k in later:
            waiting[k] += 1
    ready = [k for k, count in enumerate(waiting) if not count]
    order = []
    while ready:
        k = ready.pop(rng.randrange(len(ready)))
        order.append(schedule[k])
        for d in after[k]:
            waiting[d] -= 1
            if not waiting[d]:
                ready.append(d)
    return order


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

    With ``events``, (port id, Present(value)) pairs, the instant starts
    afresh, as clear_ports then deliver_events would leave it.  Without
    them it starts from the state's port statuses (as clear_ports and
    deliver_events prepare them), each known one taken as an event.
    From either start one body runs.

    The instant copies the mode's prebuilt start (``RuleSet.start``, in
    which the reach of every unwritten port is already ABSENT) and writes
    each event through its port's reach.  An event may replace an ABSENT
    of the start only where every unwritten port whose reach put it
    there has an event of the same status this instant; otherwise the
    port has two drivers that disagree, and that raises AssertionError,
    as does a write that finds a port of its reach known with another
    status.  Then the mode's rules run in the order of its schedule
    (``RuleSet.schedule``, built once and kept on the mode): a rule on
    no cycle runs once, after every rule that feeds it, and each
    ``_Loop`` runs a worklist of its own members until none has anything
    left to write.  ``rng`` (a random.Random) draws another valid
    schedule, and another start order inside each loop; the result must
    not depend on it.  ``applications`` counts the live ports resolved
    after the events: the live ports, less the live ports an event was
    delivered to, less the stalled ports.

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
    fresh = events is not None
    if not fresh:
        # Present statuses first, so that an ABSENT one of them meets is
        # one the start put there.
        known = [(pid, status) for pid, status in enumerate(state.statuses) if status is not UNKNOWN]
        events = sorted(known, key=lambda event: not isinstance(event[1], Present))
    st = list(rule_set.start)
    reach, owner = rule_set.reach, rule_set.owner
    live, actor = mode.live, network.port_actor
    resolved = rule_set.absent
    delivered = 0
    for pid, status in events:
        if not live[actor[pid]]:
            st[pid] = status
            if fresh:
                _frozen_delivery(network, pid)
            continue
        delivered += 1
        for q in reach[pid]:
            old = st[q]
            if old is UNKNOWN:
                st[q] = status
                resolved += 1
            elif old != status:
                if old is not ABSENT or not (owner[q] == pid or _drivers_agree(rule_set, q, status, events)):
                    raise _conflict(network, q)
                st[q] = status

    locations, values = state.locations, state.values
    decided = {}
    schedule = rule_set.schedule if rng is None else _random_schedule(rule_set, rng)
    for item in schedule:
        if item.__class__ is _Loop:
            resolved += _settle(item, st, locations, values, decided, reach, network, rng)
            continue
        for pid, status in item.step(st, locations, values, decided):
            for q in reach[pid]:
                old = st[q]
                if old is UNKNOWN:
                    st[q] = status
                    resolved += 1
                elif old != status:
                    raise _conflict(network, q)

    # Firing decisions are read off at quiescence, before any fallback:
    # a machine that could not decide did not fire.  Each machine's rule
    # ran after its last input resolved, so its last verdict is final.
    fired = {}
    for rule in rule_set.rules:
        kind, entry = decided[rule.index]
        if kind == "fire":
            fired[rule.index] = entry

    ports = rule_set.ports
    if resolved < len(ports):
        stalled = [pid for pid in ports if st[pid] is UNKNOWN]
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
    applications = len(ports) - delivered - len(stalled)
    return FixpointResult(fired, applications, stalled, _with_statuses(state, tuple(st)))


def _drivers_agree(rule_set: RuleSet, q: int, status, events) -> bool:
    """Whether every unwritten port whose reach covers ``q`` has an event
    of ``status`` among ``events``, so that none of them drives ABSENT."""
    given = dict(events)
    sources = [pid for pid in rule_set.unwritten if q in rule_set.reach[pid]]
    return bool(sources) and all(given.get(pid) == status for pid in sources)


def _conflict(network: Network, q: int) -> AssertionError:
    return AssertionError(f"port {_key_text(network.keys[q])} driven to two different statuses")


def _settle(loop: _Loop, st, locations, values, decided, reach, network, rng) -> int:
    """Run a loop's rules from a worklist of its own until none of them
    writes anything; a rule runs again when a port it reads resolves.
    Returns how many ports resolved."""
    rules, dependents = loop.rules, loop.dependents
    start = list(range(len(rules)))
    if rng is not None:
        rng.shuffle(start)
    pending = deque(start)
    queued = [True] * len(rules)
    resolved = 0
    while pending:
        k = pending.popleft()
        queued[k] = False
        for pid, status in rules[k].step(st, locations, values, decided):
            for q in reach[pid]:
                old = st[q]
                if old is UNKNOWN:
                    st[q] = status
                    resolved += 1
                    for d in dependents.get(q, ()):
                        if not queued[d]:
                            queued[d] = True
                            pending.append(d)
                elif old != status:
                    raise _conflict(network, q)
    return resolved
