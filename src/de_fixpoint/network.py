"""The static side of a model, compiled once.

A tree holds what never changes while a model runs (actor names and
kinds, ports, parameters, transitions, connections, refinement maps)
and the starting values of what iterations rewrite (locations,
variables); port statuses exist only while a model runs.  A
:class:`Network` indexes the static side once: actors with their paths,
parents and children; every port as an integer id; every variable as
an integer value slot; every wire, from a composite's connections and
the wiring a modal actor's port lists imply, as a (source port id, sink
port id) pair; each state machine's ports and compiled transitions; the
value slot each variable setter writes; and the model's timebase.
Which part of the model runs follows from the controllers' locations
alone, and no tree records it: :meth:`Network.mode` turns them into a
:class:`Mode`, once per tuple of locations, which every state in that
mode shares.

The timebase is the least common multiple of the denominators of every
clock period and offset and every delay.  The engine counts time in
ticks of ``1/timebase``, so every time it schedules is an integer, and
exact rationals appear only at the edge (printed times, ``--until``).
Ptolemy II counts model time the same way, as a multiple of a time
resolution (Ptolemaeus, ed., *System Design, Modeling, and Simulation
using Ptolemy II*, 2014, DE chapter).

A system state (see state.py) holds its dynamic side as flat tuples
indexed by actor, port id and value slot, and every engine phase works
on those.  Trees are input only, and the mapping runs one way:
:meth:`Network.flatten` reads the template's initial locations and
starting variables into slots.  A network keeps the tree it was
compiled from and that tree's nodes in index order; no tree refers to
a network, and none is built from a state.

A network is the one front door for trees: it normalizes its tree and
runs ``model.validate`` on it before compiling anything, so holding a
network proves its tree valid, and an ill-formed tree raises
``ValidationError`` with every problem.  ``initialize``, the one way
into a run, builds its network this way.  Compiling then looks
ports, children, parameters, setter targets and the names and ports of
every expression up without checking them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import NoSuchActor
from .expr import compile_expr, references
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
    normalize,
    path_text,
    validate,
)
from .values import Present


def time_param(value) -> Fraction:
    """The exact rational inside a time parameter (an IntVal or a TimeVal)."""
    return Fraction(value.value)


class CompiledTransition:
    """A transition with its guard, outputs and updates compiled to closures.

    ``reads`` holds the port ids of the inputs the guard reads, and
    ``outputs`` maps an output name to (closure, port ids of the inputs
    it reads).  ``updates`` lists (value slot, variable name, closure) in
    name order.
    """

    __slots__ = ("transition", "target", "guard", "reads", "outputs", "updates")

    def __init__(self, t, slots, parameters, in_ids):
        self.transition = t
        self.target = t.target
        self.guard = compile_expr(t.guard, slots, parameters, in_ids)
        self.reads = _port_ids(t.guard, in_ids)
        self.outputs = {
            name: (compile_expr(expr, slots, parameters, in_ids), _port_ids(expr, in_ids))
            for name, expr in t.outputs.items()
        }
        self.updates = tuple(
            (slots[var], var, compile_expr(expr, slots, parameters, in_ids))
            for var, expr in t.sets.items()
        )


def _port_ids(expr, in_ids):
    return tuple(in_ids[n] for n in sorted(references(expr)[1]))


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
        self.controller = by_name[node.controller]
        # location -> index of the child that refines it
        self.refinements = {loc: by_name[name] for loc, name in node.refinements.items()}
        # Every child but the controller: the refinements, of which only
        # the one for the controller's location is enabled.
        self.others = tuple(c for c in children if c != self.controller)
        self.outputs = node.port_names(OUT)


class ClockInfo:
    """A clock's output port, emitted status and times, in ticks."""

    def __init__(self, path, node: ActorNode, ids, timebase: int):
        params = node.parameters
        self.out = ids[(path, "output", OUT)]
        self.emit = Present(params["emit"])
        self.period = to_ticks(time_param(params["period"]), timebase)
        self.offset = to_ticks(time_param(params["offset"]), timebase)


class DelayInfo:
    """A delay's ports and delay in ticks; a zero delay costs one microstep."""

    def __init__(self, path, node: ActorNode, ids, timebase: int):
        self.inp = ids[(path, "input", IN)]
        self.out = ids[(path, "output", OUT)]
        self.delay = to_ticks(time_param(node.parameters["delay"]), timebase)
        self.microstep = 1 if self.delay == 0 else 0


def to_ticks(time, timebase: int) -> int:
    """``time`` in ticks of ``1/timebase``, which must divide it."""
    ticks = Fraction(time) * timebase
    if ticks.denominator != 1:
        raise ValueError(f"time {time} is not a multiple of the model's timebase 1/{timebase}")
    return ticks.numerator


def _timebase(nodes) -> int:
    """The least common multiple of every clock's and delay's time denominators."""
    base = 1
    for node in nodes:
        names = ("period", "offset") if node.kind == CLOCK else ("delay",) if node.kind == DELAY else ()
        for name in names:
            base = lcm(base, time_param(node.parameters[name]).denominator)
    return base


class Mode:
    """What one tuple of controller locations decides.

    ``selected``: per modal actor, the child its controller's location
    picks; ``enabled``: every actor but the children not picked;
    ``live``: each actor that is enabled and whose ancestors are;
    ``triggers``: in preorder, one (trigger port id, kind, payload) per
    live clock, delay and variable setter, which a commit scans for
    present triggers: a clock's output with its prebuilt request
    (period, 0, event), a delay's input with (delay, microstep, output
    port id), a setter's input with the value slot it writes;
    ``rules``: the fixed point's rule set, schedule and instant plans,
    built by fire.py on first use.
    """

    def __init__(self, network: "Network", key):
        # Keeps no reference to the network, which holds its modes: with no
        # reference cycle, a network goes with its last state.
        self.selected = tuple(info.refinements[loc] for info, loc in zip(network.modals, key))
        enabled = [True] * len(network.kinds)
        for info, active in zip(network.modals, self.selected):
            for child in info.others:
                enabled[child] = child == active
        self.enabled = tuple(enabled)
        self.live = live = []
        parent = network.parent
        for i, flag in enumerate(enabled):
            p = parent[i]
            live.append(flag and (p < 0 or live[p]))
        triggers = []
        for i in network.preorder:
            if not live[i]:
                continue
            kind = network.kinds[i]
            if kind == CLOCK:
                clock = network.clocks[i]
                triggers.append((clock.out, CLOCK, (clock.period, 0, (clock.out, clock.emit))))
            elif kind == DELAY:
                delay = network.delays[i]
                triggers.append((delay.inp, DELAY, (delay.delay, delay.microstep, delay.out)))
            elif kind == SETVAR:
                pid, slot = network.setters[i]
                triggers.append((pid, SETVAR, slot))
        self.triggers = tuple(triggers)
        self.rules = None


class Network:
    def __init__(self, top: ActorNode):
        """Normalize and validate ``top``, then compile it."""
        top = normalize(top)
        validate(top)
        # The tree compiled; ``nodes`` lists its actors in index order.
        self.template = top
        # Actors are numbered breadth first; ``preorder`` lists them depth
        # first, children in canonical order.
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
        self.nodes = nodes = []
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
        # variable-setter index -> (input port id, value slot of its target
        # in the nearest enclosing composite)
        self.setters = {}
        # (source port id, sink port id): every connection of a composite,
        # and every modal actor's implied wiring
        self.wires = []
        self.modals = []  # ModalInfo, in actor order
        self.coupled = {}  # controller index -> {modal output name: the twin input's id}
        self.modes = {}  # controller locations, one per modal -> Mode
        self.tick_kinds = {}  # ticks -> Tick step kind (filled by the executor)
        self.prop_readers = {}  # proposition -> compiled readers (filled by props)
        self.fsm_rules = {}  # state machine index -> its fixed-point rule (filled by fire)
        for i, node in enumerate(nodes):
            self._compile(i, node, self.paths[i])
        # Printing and propositions, in preorder; a state line lists the
        # machines by path.
        self.fsm_paths = tuple((i, ".".join(self.paths[i])) for i in self.preorder if self.kinds[i] == FSM)
        self.sorted_fsm_paths = tuple(sorted(self.fsm_paths, key=lambda entry: entry[1]))
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
            scope = self.parent[i]
            while self.kinds[scope] != COMPOSITE:
                scope = self.parent[scope]
            target = node.parameters["target"].value
            self.setters[i] = (ids[(path, "input", IN)], self.slots[scope][target])
        if node.kind == COMPOSITE:
            for c in node.connections:
                source = c.source
                if source.actor == PARENT:
                    src = ids[(path, source.port, IN)]
                else:
                    src = ids[(path + source.actor, source.port, OUT)]
                for s in c.sinks:
                    sink = (path, s.port, OUT) if s.actor == PARENT else (path + s.actor, s.port, IN)
                    self.wires.append((src, ids[sink]))
        if node.kind == MODAL:
            info = ModalInfo(i, node, self.children[i])
            self.modals.append(info)
            ctrl = self.paths[info.controller]
            twins = self.coupled[info.controller] = {}
            refinements = sorted(set(info.refinements.values()))
            # Children are numbered in name order: each modal input feeds
            # the same input of the controller and of every refinement.
            sinks = [self.paths[c] for c in sorted({info.controller, *refinements})]
            for q in node.port_names(IN):
                src = ids[(path, q, IN)]
                self.wires.extend((src, ids[(sink, q, IN)]) for sink in sinks)
            for q in info.outputs:
                # Each refinement's output feeds the controller's twin input,
                # and the controller's output is what the modal actor shows.
                twins[q] = ids[(ctrl, q, IN)]
                for r in refinements:
                    self.wires.append((ids[(self.paths[r], q, OUT)], twins[q]))
                self.wires.append((ids[(ctrl, q, OUT)], ids[(path, q, OUT)]))

    @cached_property
    def signature(self) -> tuple:
        """The static structure; equal signatures mean equal slot layouts."""
        return tuple(
            (
                tuple(getattr(node, name) for name in STATIC_FIELDS),
                tuple(node.variables),
                self.children[i],
            )
            for i, node in enumerate(self.nodes)
        )

    def mode(self, locations) -> Mode:
        """The mode that a state's locations put the model in."""
        key = tuple(locations[info.controller] for info in self.modals)
        mode = self.modes.get(key)
        if mode is None:
            mode = self.modes[key] = Mode(self, key)
        return mode

    def actor(self, path) -> int:
        """The index of the actor at an absolute path (starting with the top
        actor's name); an unknown path raises NoSuchActor naming its first
        missing prefix."""
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

    def flatten(self):
        """A run's starting slots as (locations, values): each state
        machine's initial location, and every variable's starting value."""
        nodes = self.nodes
        locations = tuple(node.init_location if node.kind == FSM else None for node in nodes)
        values = tuple(v for node in nodes for v in node.variables.values())
        return locations, values
