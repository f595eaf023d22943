"""Per-instant port resolution as a monotone fixed point.

Each iteration starts with every port unknown, delivers the events due
now, and then resolves ports until nothing changes.  Ports move at most
once, from unknown to present-with-a-value or absent, and nothing that
resolves them looks at anything but port statuses (and the state of the
machine it drives), so the final assignment is independent of the order
in which it happens (the test suite checks it against a reference that
runs every machine under randomized orders, ``tests/fixpoint_ref.py``).

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

Each state machine compiles once per network, into the one rule that
every mode running it shares (``_Machine``): its label, its ports and
every location's compiled transitions, built when an instant first
runs it.  Everything else static about an instant is built from the
compiled network once per mode, when a state in it first resolves an
instant, and kept on the mode (``RuleSet``):

* the schedule: rule A feeds rule B when a port in the reach of one of
  A's outputs is one B reads.  The strongly connected parts of that
  graph run in topological order, ties going to the deepest actors (a
  static schedule, as for synchronous block diagrams: Edwards & Lee,
  SCP 48, 2003).  A rule on no cycle runs once, when everything it
  reads is settled, and decides once.  Only a cycle iterates, with a
  worklist confined to it (Bourdoncle, 1993), where decisions may stay
  partial until its ports resolve.  A rule downstream of a cycle that
  stalls makes the one partial decision its known inputs allow;
* the plans, one per set of ports an instant's events land on, built
  on first use (``_plan``).  A plan's start is a status list in which
  the reach of every port that nothing writes and no event lands on is
  already ABSENT; an instant copies it and writes only its events, so
  it costs what its events touch, not what the model holds.  A machine
  with no present input cannot fire (as in the DE semantics of Lee &
  Zheng, EMSOFT 2007, and Ptolemy II's DE director, which fires only
  the actors that have events), so a plan runs only the machines that
  read a port in the reach of an event or of a running machine's
  output, and every machine it cannot leave out; the rest write ABSENT
  through their outputs' reach in the plan's start.

Leaving a machine out is exact, not an approximation: it happens only
when the machine would have decided not to fire, raised nothing and
written ABSENT where nothing else writes.  So a machine is left out
only when it is on no cycle (a ``_Loop`` and all it feeds always run),
every port it reads is ABSENT in the plan's start with no event
reaching it, it has no output coupled to a modal actor's (which relays
a refinement instead of going absent), nothing else (an unwritten
port, another machine or an event) writes its outputs' reach, and
every guard of every location is proven unable to raise
(``expr.guards_cannot_raise``).  One method, ``_Machine.run``, decides
and writes for a machine, and plans and loops both call it: an instant
has one path, whatever its plan holds.

The statuses live in a flat list indexed by port id, in which an
unknown port always holds the one UNKNOWN object, and state machines
read their location and variables from the state's slots; guards and
outputs are compiled closures (see expr.compile_expr).

An instant has one entry, ``compute_fixpoint(state, events)``: it
clears every port, delivers the due events and resolves the rest, and
returns the statuses and firing decisions for ``postfire`` to commit.
``clear_ports`` and ``deliver_events`` are the first two of those
stages on their own, and ``map_ports`` writes a state's variables into
the template (a tree has no field for a location); no step calls any of
the three (see their comments).
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass, replace

from .errors import CausalityCycle, NondeterministicFsm, ValidationError
from .model import FSM, IN, OUT, ActorNode
from .expr import guards_cannot_raise
from .network import CompiledTransition, Mode, Network
from .state import SystemState
from .util import FrozenMap
from .values import ABSENT, LONG_BITS, UNKNOWN, BoolVal, IntVal, Present, check_digits

log = logging.getLogger(__name__)

# A port is addressed by (actor path, port name, direction).
PortKey = tuple


def _key_text(key: PortKey) -> str:
    path, name, direction = key
    return f"{'.'.join(path)}.{name}({direction})"


def _with_statuses(state: SystemState, statuses) -> SystemState:
    return SystemState(
        state.network,
        state.mode,
        state.locations,
        state.values,
        statuses,
        state.entries,
        state.now,
        state.microstep_of_instant,
    )


# The first two stages of an instant on their own.  Bound only for
# bench/spans.py, which wraps them by name through ``executor``, until
# the bench reads counters instead (ROADMAP item 1, stage C): no step
# and no test calls them, since compute_fixpoint clears and delivers
# for itself.


def clear_ports(state: SystemState) -> SystemState:
    """Reset every port (frozen subtrees included) to unknown."""
    return _with_statuses(state, (UNKNOWN,) * state.network.size)


def deliver_events(state: SystemState, events) -> SystemState:
    """Write the (port id, Present(value)) pairs ``events`` onto their
    ports, and nowhere else."""
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


# Bound only for bench/spans.py, which wraps it by this name, until the
# bench reads counters instead (ROADMAP item 1, stage C): no step and no
# test calls it.  A tree has no field for a location, so ``locations``
# is not written anywhere; the signature stays as the bench knows it.


def map_ports(network: Network, locations, values) -> ActorNode:
    """The network's template with ``values`` written in."""
    nodes = network.nodes
    rebuilt = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        change = {}
        if node.variables:
            change["variables"] = FrozenMap({name: values[slot] for name, slot in network.slots[i].items()})
        kids = network.children[i]
        if kids:
            # Children have consecutive indices.
            change["inner"] = tuple(rebuilt[kids[0] : kids[-1] + 1])
        rebuilt[i] = replace(node, **change)
    return rebuilt[0]


# Machines. ------------------------------------------------------------------

_NAMES_NONE = {}  # the outputs a machine that does not fire names; never written


class _Machine:
    """A live state machine as an instant runs it.

    ``run(st, locations, values, fired, reach)`` decides whether the
    machine fires and writes what the decision resolves through its
    outputs' reach, in one call, and returns how many ports it resolved.
    ``st`` holds every port's status by port id, ``locations`` and
    ``values`` the state's slots; a firing machine's compiled transition
    goes into ``fired`` by actor index.  The decision is stable: once made
    it never changes as port knowledge grows, so a machine in ``fired`` is
    not decided again, and a machine that ran again (in a ``_Loop``) only
    writes what has become computable since.

    The decision.  While a port some guard of the location reads is
    unknown, nothing is decided; otherwise every guard is evaluated.  A
    guard that is not boolean raises ValidationError, and two true guards
    with an input present raise NondeterministicFsm.  One true guard with
    an input present fires; no true guard, or every input known absent,
    does not; anything else stays undecided, with the outputs unknown.

    The outputs, once decided: on a firing, each output named by the
    transition gets the evaluated expression, as soon as every port the
    expression reads is known, and every other plain output is absent;
    without a firing, every plain output is absent.  Outputs that double
    as a modal actor's outputs (the controller's coupled pairs) relay the
    refinement's value when the transition does not name them, so they
    copy the twin input port instead of going absent.  A write that finds
    a port of the reach known with another status raises AssertionError.

    The static side, built once per network when an instant first runs
    the machine (``_machine``): ``label``, its dotted path; ``reads``, its
    input port ids; ``outputs``, (output name, port id, the twin input's
    port id when coupled) per output, and ``out_ids``, their port ids;
    ``outgoing``, each location's compiled transitions in canonical order.

    ``coupled``: some output relays a refinement's (see above).
    ``proven``: every guard of every location is proven unable to raise
    (``expr.guards_cannot_raise``), so that, with every input absent and
    no coupled output, the machine would decide not to fire, write
    ABSENT through its outputs' reach and do nothing else.  It is proven
    the first time a plan could leave the machine out, so that a model
    whose events reach every machine never pays for the proof.
    """

    __slots__ = (
        "index", "label", "depth", "reads", "outgoing", "outputs", "out_ids", "keys", "coupled", "node", "_proven"
    )

    def __init__(self, index: int, network: Network):
        self.node = node = network.nodes[index]
        path, ids = network.paths[index], network.ids
        self.index = index
        self.label = label = ".".join(path)
        self.depth = len(path)
        in_ids = {name: ids[(path, name, IN)] for name in node.port_names(IN)}
        self.reads = tuple(in_ids.values())
        twins = network.coupled.get(index, {})
        self.outputs = tuple((name, ids[(path, name, OUT)], twins.get(name)) for name in node.port_names(OUT))
        self.out_ids = tuple(pid for _, pid, _ in self.outputs)
        env = (label, network.slots[index], node.parameters, in_ids)
        self.outgoing = {
            location: tuple(CompiledTransition(t, *env) for t in node.transitions if t.source == location)
            for location in node.locations
        }
        # For conflict messages: a list, which refers to no network, so
        # that a network's rules hold no reference cycle.
        self.keys = network.keys
        self.coupled = any(twin is not None for _, _, twin in self.outputs)
        self._proven = None

    @property
    def proven(self) -> bool:
        if self._proven is None:
            node = self.node
            self._proven = guards_cannot_raise(node.transitions, node.variables, node.parameters)
        return self._proven

    def run(self, st, locations, values, fired, reach) -> int:
        index = self.index
        entry = fired.get(index)
        if entry is None:
            outgoing = self.outgoing[locations[index]]
            any_present = False
            all_known = True
            for pid in self.reads:
                status = st[pid]
                if status is ABSENT:
                    continue
                if status is UNKNOWN:
                    all_known = False
                elif status.__class__ is Present:
                    any_present = True
            if not all_known:
                for e in outgoing:
                    for pid in e.reads:
                        if st[pid] is UNKNOWN:
                            # Guards only mention the machine's own inputs,
                            # so all inputs known would imply evaluable.
                            return 0
            trues = []
            for e in outgoing:
                v = e.guard(st, values)
                if v.__class__ is not BoolVal:
                    t = e.transition
                    raise ValidationError([f"{self.label}: guard of {t.source}->{t.target} is not boolean"])
                if v.value:
                    trues.append(e)
            if trues:
                if any_present:
                    if len(trues) >= 2:
                        raise NondeterministicFsm(self.label, [(e.transition.source, e.target) for e in trues])
                    entry = fired[index] = trues[0]
                elif not all_known:
                    return 0
        named = _NAMES_NONE if entry is None else entry.outputs
        resolved = 0
        for name, pid, twin in self.outputs:
            if st[pid] is not UNKNOWN:
                continue
            if name in named:
                fn, reads = named[name]
                ready = True
                for p in reads:
                    if st[p] is UNKNOWN:
                        ready = False
                        break
                if not ready:
                    continue
                v = fn(st, values)
                if v.__class__ is IntVal and v.value.bit_length() > LONG_BITS:
                    check_digits(v.value, f"{self.label}.{name}")
                status = Present(v)
            elif twin is not None:
                status = st[twin]
                if status is UNKNOWN:
                    continue
            else:
                status = ABSENT
            for q in reach[pid]:
                old = st[q]
                if old is UNKNOWN:
                    st[q] = status
                    resolved += 1
                elif old != status:
                    raise _conflict(self.keys, q)
        return resolved


def _machine(network: Network, index: int) -> _Machine:
    """The network's one ``_Machine`` for the state machine at ``index``,
    built on first use: a rule holds nothing that depends on the mode, so
    every mode shares it."""
    rule = network.fsm_rules.get(index)
    if rule is None:
        rule = network.fsm_rules[index] = _Machine(index, network)
    return rule


class _Loop:
    """Machines that read each other's outputs in one instant: a strongly
    connected part of a mode's rule graph, settled by a worklist of its
    own.  ``feeds`` holds, by position among ``rules``, the positions of
    the members that read a port in the reach of that member's outputs."""

    __slots__ = ("rules", "feeds")

    def __init__(self, rules, feeds):
        self.rules = rules
        self.feeds = feeds

    def run(self, st, locations, values, fired, reach) -> int:
        """Run the members until none of them writes anything; a member
        runs again when one that feeds it has written.  Returns how many
        ports resolved."""
        rules, feeds = self.rules, self.feeds
        pending = deque(range(len(rules)))
        queued = [True] * len(rules)
        resolved = 0
        while pending:
            k = pending.popleft()
            queued[k] = False
            wrote = rules[k].run(st, locations, values, fired, reach)
            if wrote:
                resolved += wrote
                for d in feeds[k]:
                    if not queued[d]:
                        queued[d] = True
                        pending.append(d)
        return resolved


@dataclass
class RuleSet:
    """What the fixed point needs of one mode, built once by build_rules.

    ``rules``: one ``_Machine`` per live state machine, deepest actors first;
    ``ports``: every live port, each of which the fixed point must resolve;
    ``unwritten``: the live ports that no machine writes and no live wire
    feeds (clock and delay outputs, unconnected ports), absent unless an
    event lands there;
    ``reach``: by port id, for each live port, the port itself and then
    every live port downstream of it (None for frozen ports);
    ``schedule``: the order the rules run in: a rule, which runs once, or
    a ``_Loop``, settled by a worklist of its own;
    ``quiet``: the rules on no cycle with no coupled output that alone
    write every port in the reach of their outputs, which an instant may
    leave unrun if they are ``proven`` (see ``_plan``);
    ``plans``: by the ports an instant's events land on, the ``_Plan`` it
    runs, built on first use.
    """

    rules: tuple
    ports: tuple
    unwritten: tuple
    reach: list
    schedule: tuple
    quiet: frozenset
    plans: dict


def build_rules(network: Network, mode: Mode) -> RuleSet:
    """Compile the live region of a mode: its machines' rules, its nets,
    and the order the rules run in.

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
    rules = [_machine(network, i) for i in network.preorder if live[i] and network.kinds[i] == FSM]
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
        written.update(rule.out_ids)
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
    readers = {}
    for n, rule in enumerate(rules):
        for pid in rule.reads:
            readers.setdefault(pid, []).append(n)
    succ = [
        sorted({m for pid in rule.out_ids for q in reach[pid] for m in readers.get(q, ())})
        for rule in rules
    ]
    schedule = _schedule(rules, succ)
    # A rule may go unrun only where it alone writes its outputs' reach:
    # no unwritten port's reach and no other rule's meets it.
    covered = {q for pid in unwritten for q in reach[pid]}
    writer = {}
    shared = set()
    for rule in rules:
        for pid in rule.out_ids:
            for q in reach[pid]:
                if writer.setdefault(q, rule) is not rule or q in covered:
                    shared.add(q)
    quiet = frozenset(
        item
        for item in schedule
        if item.__class__ is _Machine
        and not item.coupled
        and shared.isdisjoint(q for pid in item.out_ids for q in reach[pid])
    )
    return RuleSet(tuple(rules), ports, unwritten, reach, schedule, quiet, {})


def _schedule(rules, succ):
    """The schedule over ``rules`` with successor lists ``succ``."""
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
    schedule = []
    for c in order:
        part = parts[c]
        if len(part) == 1 and part[0] not in succ[part[0]]:
            schedule.append(rules[part[0]])
        else:
            # A part is sorted, as is each successor list, so each
            # member's feeds are too.
            at = {n: k for k, n in enumerate(part)}
            feeds = tuple(tuple(at[m] for m in succ[n] if m in at) for n in part)
            schedule.append(_Loop(tuple(rules[n] for n in part), feeds))
    return tuple(schedule)


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


@dataclass
class FixpointResult:
    """One resolved instant: ``statuses``, every port's status by port id,
    and ``decisions`` mapping each firing machine's actor index to its
    compiled transition."""

    decisions: dict
    applications: int
    stalled_ports: tuple  # ports that needed the absent fallback, () if none
    statuses: tuple


class _Plan:
    """What an instant whose events land on a given set of ports runs:
    ``start``, the statuses it starts from before its events, with
    ``absent`` live ports resolved, and ``run``, the items of the schedule
    it runs, in schedule order."""

    __slots__ = ("start", "absent", "run")

    def __init__(self, start, absent, run):
        self.start = start
        self.absent = absent
        self.run = run


def _plan(rule_set: RuleSet, pids) -> _Plan:
    """The plan of an instant whose events land on the ports ``pids``.

    The plan's start writes ABSENT through the reach of every unwritten
    port that has no event, then through the outputs' reach of every
    rule it leaves out.  A rule in ``rule_set.quiet`` is left out when
    every port it reads is ABSENT in the start and no event's reach
    meets it, no event's reach meets its outputs' reach either, and it
    is ``proven``.  That is exact: such a rule would decide not to fire
    without raising, and write ABSENT where nothing else writes.  The
    schedule is walked in order, so a rule left out can leave the rules
    it alone feeds out too.  A ``_Loop``, and so every rule it feeds,
    always runs.
    """
    reach = rule_set.reach
    start = [UNKNOWN] * len(reach)
    absent = 0
    given = set(pids)
    for pid in rule_set.unwritten:
        if pid not in given:
            for q in reach[pid]:
                if start[q] is UNKNOWN:
                    start[q] = ABSENT
                    absent += 1
    reached = set()
    for pid in pids:
        net = reach[pid]
        if net is not None:
            reached.update(net)
    run = []
    for item in rule_set.schedule:
        if item in rule_set.quiet and all(start[p] is ABSENT and p not in reached for p in item.reads):
            out = [q for pid in item.out_ids for q in reach[pid]]
            if reached.isdisjoint(out) and item.proven:
                for q in out:
                    if start[q] is UNKNOWN:
                        start[q] = ABSENT
                        absent += 1
                continue
        run.append(item)
    return _Plan(tuple(start), absent, tuple(run))


def compute_fixpoint(state: SystemState, events, bottom_as_absent: bool = False) -> FixpointResult:
    """Resolve the instant at which ``events``, (port id, Present(value))
    pairs sorted by port id, are due in ``state``.

    The instant starts with every port unknown; the state's own port
    statuses play no part.  It looks up the plan for the ports its
    events land on (``RuleSet.plans``, built by ``_plan`` on first use
    and kept on the mode), copies the plan's start, in which the reach
    of every unwritten port without an event and of every rule the plan
    leaves out is already ABSENT, and writes each event through its
    port's reach.  A write that finds a port of its reach known with
    another status means two drivers disagree, and raises
    AssertionError: an event meeting the ABSENT of a silent second
    driver, a second event with another value, or a machine's output
    meeting either.  Then the plan's rules run in schedule order: a rule
    on no cycle runs once, after every rule that feeds it, and each
    ``_Loop`` runs a worklist of its own members until none has anything
    left to write.  ``applications`` counts the live ports resolved after
    the events: the live ports, less the live ports an event was
    delivered to, less the stalled ports.

    Unknown ports at quiescence raise CausalityCycle unless
    ``bottom_as_absent``, in which case they are forced absent and any
    still-undecided machine counts as not firing.  A frozen port stays
    unknown unless an event was delivered there.
    """
    network = state.network
    mode = state.mode
    rule_set = mode.rules
    if rule_set is None:
        rule_set = mode.rules = build_rules(network, mode)
    key = tuple([pid for pid, _ in events])
    plan = rule_set.plans.get(key)
    if plan is None:
        plan = rule_set.plans[key] = _plan(rule_set, key)
    st = list(plan.start)
    reach = rule_set.reach
    live, actor = mode.live, network.port_actor
    resolved = plan.absent
    delivered = 0
    for pid, status in events:
        if not live[actor[pid]]:
            st[pid] = status
            _frozen_delivery(network, pid)
            continue
        delivered += 1
        for q in reach[pid]:
            old = st[q]
            if old is UNKNOWN:
                st[q] = status
                resolved += 1
            elif old != status:
                raise _conflict(network.keys, q)

    # Firing decisions are read off at quiescence, before any fallback: a
    # machine that could not decide did not fire.
    locations, values = state.locations, state.values
    fired = {}
    for item in plan.run:
        resolved += item.run(st, locations, values, fired, reach)

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
    return FixpointResult(fired, applications, stalled, tuple(st))


def _conflict(keys, q: int) -> AssertionError:
    return AssertionError(f"port {_key_text(keys[q])} driven to two different statuses")

