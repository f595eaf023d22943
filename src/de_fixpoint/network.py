"""The static side of a model, compiled once.

A tree mixes what never changes while a model runs (actor names and
kinds, ports, parameters, transitions, connections, refinement maps)
with what every iteration rewrites (port statuses, locations, variables,
enabled flags).  A :class:`Network` indexes the static side once: actors
with their paths, parents and children; every port as an integer id;
every variable as an integer value slot; connection copy tables; each
state machine's ports and compiled transitions; the wiring of modal
actors; the composite each variable setter writes; and the model's
timebase.  The fixed point caches its rule sets here too, one per mode
configuration.

The timebase is the least common multiple of the denominators of every
clock period and offset and every delay.  The engine counts time in
ticks of ``1/timebase``, so every time it schedules is an integer, and
exact rationals appear only at the edge (printed times, ``--until``).
Ptolemy II counts model time the same way, as a multiple of a time
resolution (Ptolemaeus, ed., *System Design, Modeling, and Simulation
using Ptolemy II*, 2014, DE chapter).

A system state (see state.py) holds its dynamic side as flat tuples
indexed by actor, port id and value slot, and every engine phase works
on those.  Trees remain the model's input and a read-only view of a
state: :meth:`Network.flatten` reads a tree's dynamic side into slots,
:meth:`Network.flat_events` turns Events into port ids, and
:meth:`Network.tree` (through :func:`map_ports`, the one tree writer)
builds the view ``SystemState.top`` shows.  ``network_of`` compiles a
tree's network on first use and caches it on the tree's root; every
tree built from slots carries it too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import NoSuchActor, NoSuchPort
from .expr import compile_expr, referenced_ports
from .model import (
    CLOCK,
    COMPOSITE,
    DELAY,
    FSM,
    IN,
    MODAL,
    OUT,
    PARENT,
    SETVAR,
    STATIC_FIELDS,
    ActorNode,
    Port,
    path_text,
)
from .util import FrozenMap, time_amount
from .values import UNKNOWN, IntVal, Present, TimeVal, Unknown


def time_param(value) -> Fraction:
    """The exact rational inside a time-like parameter value."""
    if isinstance(value, (IntVal, TimeVal)):
        return time_amount(value.value)
    return time_amount(value)


class CompiledTransition:
    """A transition with its guard, outputs and updates compiled to closures.

    ``reads`` holds the port ids the guard reads; ``blind`` is set when
    it reads a port that is not one of the machine's inputs, which is
    never known.  ``outputs`` maps an output name to (closure, port ids
    it reads, or None when it reads a port that is never known).
    ``updates`` lists (value slot, variable name, closure) in name order;
    the slot is None for a name the machine does not declare.
    """

    __slots__ = ("transition", "target", "guard", "reads", "blind", "outputs", "updates")

    def __init__(self, t, slots, parameters, in_ids):
        self.transition = t
        self.target = t.target
        self.guard = compile_expr(t.guard, slots, parameters, in_ids)
        self.reads, self.blind = _port_ids(t.guard, in_ids)
        self.outputs = {}
        for name, expr in t.outputs.items():
            reads, blind = _port_ids(expr, in_ids)
            self.outputs[name] = (compile_expr(expr, slots, parameters, in_ids), None if blind else reads)
        self.updates = tuple(
            (slots.get(var), var, compile_expr(expr, slots, parameters, in_ids))
            for var, expr in t.sets.items()
        )


def _port_ids(expr, in_ids):
    names = referenced_ports(expr)
    return tuple(in_ids[n] for n in sorted(names) if n in in_ids), not names <= in_ids.keys()


class FsmInfo:
    """A state machine's port ids and compiled transitions."""

    def __init__(self, path, node: ActorNode, ids, slots):
        self.label = ".".join(path)
        self.init_location = node.init_location
        self.in_ids = {n: ids[(path, n, IN)] for n in node.port_names(IN)}
        self.out_ids = {n: ids[(path, n, OUT)] for n in node.port_names(OUT)}
        self.in_pids = tuple(self.in_ids.values())
        # location -> compiled transitions leaving it, in canonical order
        self.outgoing = _Outgoing(node.transitions, slots, node.parameters, self.in_ids)


class _Outgoing(dict):
    """Compiled transitions by source location, compiled on first lookup."""

    def __init__(self, transitions, slots, parameters, in_ids):
        super().__init__()
        self.transitions = transitions
        self.env = (slots, parameters, in_ids)

    def __missing__(self, location):
        entries = self[location] = tuple(
            CompiledTransition(t, *self.env) for t in self.transitions if t.source == location
        )
        return entries


class ModalInfo:
    """Which child is the controller and which refines each location."""

    def __init__(self, index: int, node: ActorNode, children):
        by_name = {node.inner[k].name: c for k, c in enumerate(children)}
        self.index = index
        self.controller = by_name.get(node.controller)
        # location -> index of the child that refines it
        self.refinements = {loc: by_name.get(name) for loc, name in node.refinements.items()}
        # Every child but the controller: the refinements, of which only
        # the one for the controller's location is enabled.
        self.others = tuple(c for c in children if c != self.controller)
        self.outputs = node.port_names(OUT)

    def refinement(self, location):
        """The index of the child that refines ``location``, or None."""
        return self.refinements.get(location)


class ClockInfo:
    """A clock's output port, emitted status and times, in ticks."""

    def __init__(self, path, node: ActorNode, ids, timebase: int):
        params = node.parameters
        self.out = ids[(path, "output", OUT)]
        self.emit = Present(params["emit"]) if "emit" in params else None
        self.period = _param_ticks(params.get("period"), timebase)
        self.offset = _param_ticks(params.get("offset"), timebase)


class DelayInfo:
    """A delay's ports and delay in ticks; a zero delay costs one microstep."""

    def __init__(self, path, node: ActorNode, ids, timebase: int):
        self.inp = ids[(path, "input", IN)]
        self.out = ids[(path, "output", OUT)]
        self.delay = _param_ticks(node.parameters.get("delay"), timebase)
        self.microstep = 1 if self.delay == 0 else 0


def to_ticks(time, timebase: int) -> int:
    """``time`` in ticks of ``1/timebase``, which must divide it."""
    ticks = Fraction(time) * timebase
    if ticks.denominator != 1:
        raise ValueError(f"time {time} is not a multiple of the model's timebase 1/{timebase}")
    return ticks.numerator


def _param_ticks(value, timebase: int):
    return None if value is None else to_ticks(time_param(value), timebase)


def _timebase(nodes) -> int:
    """The least common multiple of every clock's and delay's time denominators."""
    base = 1
    for node in nodes:
        names = ("period", "offset") if node.kind == CLOCK else ("delay",) if node.kind == DELAY else ()
        for name in names:
            value = node.parameters.get(name)
            if isinstance(value, (IntVal, TimeVal)):
                base = lcm(base, time_param(value).denominator)
    return base


class Mode:
    """What one tuple of enabled flags decides.

    ``live`` flags each actor whose ancestors and itself are enabled;
    ``committers`` lists, in preorder, the live actors a commit visits.
    """

    def __init__(self, network: "Network", enabled):
        self.live = live = []
        parent = network.parent
        for i, flag in enumerate(enabled):
            p = parent[i]
            live.append(flag and (p < 0 or live[p]))
        self.committers = tuple(
            (i, network.kinds[i])
            for i in network.preorder
            if live[i] and network.kinds[i] in (FSM, CLOCK, DELAY, SETVAR)
        )


class Network:
    def __init__(self, top: ActorNode):
        # The tree compiled, which trees are rebuilt from: a copy of its
        # root, so that the network, which network_of caches on ``top``,
        # is not reachable from itself.
        self.template = top.with_state()
        # Actors are numbered breadth first, so a tree's actors come out in
        # index order from one cheap sweep (see nodes_of); ``preorder``
        # lists them depth first, the order iter_actors reports them in.
        # Ports are numbered actor by actor, each actor's in canonical order,
        # and value slots the same way, each actor's in variable-name order.
        self.paths = []  # actor paths
        self.kinds = []
        self.parent = []  # index of the parent actor, -1 for the root
        self.children = []  # child indices, in canonical order
        self.index = {}  # actor path -> index
        self.keys = []  # port id -> port key (path, name, direction)
        self.port_ids = []  # per actor: its port ids, in canonical port order
        self.port_actor = []  # port id -> index of its actor
        self.ids = {}  # port key -> port id
        self.slots = []  # per actor: {variable name: value slot}
        slot_count = 0
        nodes = []
        pending = [(top, (top.name,), -1)]
        for node, path, parent in pending:
            i = len(nodes)
            nodes.append(node)
            self.paths.append(path)
            self.kinds.append(node.kind)
            self.parent.append(parent)
            self.index[path] = i
            first = len(pending)
            pending.extend((c, path + (c.name,), i) for c in node.inner)
            self.children.append(tuple(range(first, len(pending))))
            ids = []
            for p in node.ports:
                key = (path, p.name, p.direction)
                self.ids[key] = len(self.keys)
                ids.append(len(self.keys))
                self.keys.append(key)
                self.port_actor.append(i)
            self.port_ids.append(tuple(ids))
            self.slots.append({name: slot_count + k for k, name in enumerate(node.variables)})
            slot_count += len(node.variables)
        self.size = len(self.keys)
        self.preorder = []
        stack = [0]
        while stack:
            i = stack.pop()
            self.preorder.append(i)
            stack.extend(reversed(self.children[i]))
        self.timebase = _timebase(nodes)

        self.fsms = {}  # index -> FsmInfo
        self.clocks = {}  # index -> ClockInfo
        self.delays = {}  # index -> DelayInfo
        # variable-setter index -> (input port id, target name, index of the
        # enclosing composite or None)
        self.setters = {}
        self.copies = {}  # composite/modal index -> ((source id, sink ids), ...)
        self.modals = []  # ModalInfo, in actor order
        self.coupled = {}  # controller index -> the modal's output names
        self.rule_sets = {}  # mode configuration -> rule set (filled by fire)
        self.modes = {}  # enabled flags -> Mode
        self.tick_kinds = {}  # ticks -> Tick step kind (filled by the executor)
        self.prop_readers = {}  # proposition -> compiled reader (filled by props)
        for i, node in enumerate(nodes):
            self._compile(i, node, self.paths[i])
        # Printing and propositions, in preorder.
        self.fsm_paths = tuple((i, ".".join(self.paths[i])) for i in self.preorder if self.kinds[i] == FSM)
        self.variable_groups = tuple(
            (".".join(self.paths[i]), tuple(self.slots[i].items()))
            for i in self.preorder
            if self.kinds[i] in (COMPOSITE, FSM) and self.slots[i]
        )

    def _compile(self, i: int, node: ActorNode, path) -> None:
        ids = self.ids
        if node.kind == FSM:
            self.fsms[i] = FsmInfo(path, node, ids, self.slots[i])
        elif node.kind == CLOCK:
            self.clocks[i] = ClockInfo(path, node, ids, self.timebase)
        elif node.kind == DELAY:
            self.delays[i] = DelayInfo(path, node, ids, self.timebase)
        elif node.kind == SETVAR:
            target = node.parameters["target"].value if "target" in node.parameters else None
            self.setters[i] = (ids[(path, "input", IN)], target, self._enclosing_composite(i))
        if node.kind in (COMPOSITE, MODAL):
            self.copies[i] = tuple(
                (
                    ids[
                        (path, c.source.port, IN)
                        if c.source.actor == PARENT
                        else (path + c.source.actor, c.source.port, OUT)
                    ],
                    tuple(
                        ids[(path, s.port, OUT) if s.actor == PARENT else (path + s.actor, s.port, IN)]
                        for s in c.sinks
                    ),
                )
                for c in node.connections
            )
        if node.kind == MODAL:
            info = ModalInfo(i, node, self.children[i])
            self.modals.append(info)
            if info.controller is not None:
                self.coupled[info.controller] = info.outputs

    def _enclosing_composite(self, i: int):
        """The nearest proper ancestor of actor ``i`` that is a composite."""
        j = self.parent[i]
        while j >= 0 and self.kinds[j] != COMPOSITE:
            j = self.parent[j]
        return j if j >= 0 else None

    @cached_property
    def signature(self) -> tuple:
        """The static structure; equal signatures mean equal slot layouts."""
        return tuple(
            (
                tuple(getattr(node, name) for name in STATIC_FIELDS),
                tuple((p.name, p.direction) for p in node.ports),
                tuple(node.variables),
                self.children[i],
            )
            for i, node in enumerate(self.nodes_of(self.template))
        )

    def mode(self, enabled) -> Mode:
        """The live flags and commit order for a tuple of enabled flags."""
        mode = self.modes.get(enabled)
        if mode is None:
            mode = self.modes[enabled] = Mode(self, enabled)
        return mode

    def actor(self, path) -> int:
        """The index of the actor at an absolute path, as ``model.resolve`` finds it."""
        path = tuple(path)
        i = self.index.get(path)
        if i is not None:
            return i
        if not path or path[0] != self.paths[0][0]:
            raise NoSuchActor(path_text(path) if path else "<empty path>")
        for k in range(2, len(path) + 1):
            if path[:k] not in self.index:
                raise NoSuchActor(path_text(path[:k]))
        raise NoSuchActor(path_text(path))

    def flat_events(self, events) -> tuple:
        """Events as the engine queues them: (port id, Present(value)) pairs
        sorted by port id, the later of two events for one port kept.

        Every event must target an output port, where it lands.
        """
        out = {}
        for ev in events:
            target = ev.target
            if target.actor not in self.index:
                raise NoSuchPort(repr(target))
            pid = self.ids.get((target.actor, target.port, OUT))
            if pid is None:
                raise NoSuchPort(f"{target!r} is not an output port")
            out[pid] = Present(ev.value)
        return tuple(sorted(out.items()))

    def nodes_of(self, top: ActorNode) -> list:
        """The actors of a tree with this structure, in index order."""
        nodes = [top]
        for node in nodes:
            nodes.extend(node.inner)
        return nodes

    def flatten(self, top: ActorNode):
        """A tree's dynamic side as (locations, values, enabled flags, statuses)."""
        nodes = self.nodes_of(top)
        locations = tuple(node.curr_location if node.kind == FSM else None for node in nodes)
        values = tuple(v for node in nodes for _, v in node.variables.items())
        enabled = tuple(node.enabled for node in nodes)
        statuses = tuple(UNKNOWN if isinstance(p.status, Unknown) else p.status for node in nodes for p in node.ports)
        return locations, values, enabled, statuses

    def tree(self, locations, values, enabled, statuses) -> ActorNode:
        """The tree with this structure and the given dynamic side."""
        return map_ports(self, locations, values, enabled, statuses)


def network_of(top: ActorNode) -> Network:
    """The compiled structure of ``top``'s tree, compiled on first use."""
    network = top._network
    if network is None:
        network = Network(top)
        object.__setattr__(top, "_network", network)
    return network


def map_ports(network: Network, locations, values, enabled, statuses) -> ActorNode:
    """Write slots into a tree: the one way a tree is built from a state.

    Rebuilds the network's template bottom up.  Every port and child
    tuple keeps its canonical order and is never sorted again; ports
    whose status is the template's are shared with it.  The tree carries
    the network.
    """
    nodes = network.nodes_of(network.template)
    rebuilt = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        ports = tuple(
            p if statuses[pid] == p.status else Port(p.name, p.direction, statuses[pid])
            for p, pid in zip(node.ports, network.port_ids[i])
        )
        change = {"enabled": enabled[i]}
        if node.kind == FSM:
            change["curr_location"] = locations[i]
        if node.variables:
            change["variables"] = FrozenMap({name: values[slot] for name, slot in network.slots[i].items()})
        kids = network.children[i]
        # Children have consecutive indices.
        inner = tuple(rebuilt[kids[0] : kids[-1] + 1]) if kids else None
        rebuilt[i] = node.with_state(ports=ports, inner=inner, **change)
    top = rebuilt[0]
    object.__setattr__(top, "_network", network)
    return top
