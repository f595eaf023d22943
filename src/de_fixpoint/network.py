"""The static side of a model, compiled once.

A tree holds what never changes while a model runs (actor names and
kinds, ports, parameters, transitions, connections, refinement maps)
and the starting values of what iterations rewrite (locations,
variables); port statuses exist only while a model runs.  A
:class:`Network` indexes the static side once: actors with their paths,
parents and children; every port as an integer id; every variable as
an integer value slot; every wire, from a composite's connections and
the wiring a modal actor's port lists imply, as a (source port id, sink
port id) pair; each clock, delay and variable setter as the one
trigger a commit acts on (``Network.triggers``, with each clock's first
tick in ``Network.offsets``); and the model's timebase.  A state
machine compiles in fire.py, into the one rule an instant runs
(``fire._Machine``), when an instant first runs it.  Which part of the
model runs follows from the controllers' locations alone, and no tree
records it: :meth:`Network.mode` turns them into a :class:`Mode`, once
per tuple of locations, which every state in that mode shares and
which selects the live actors' triggers.

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
from .expr import compile_expr
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


class CompiledTransition:
    """A transition with its guard, outputs and updates compiled to closures.

    ``reads`` holds the port ids of the inputs the guard reads, and
    ``outputs`` maps an output name to (closure, port ids of the inputs
    it reads), as ``compile_expr`` gives them.  ``updates`` lists (value
    slot, the variable's dotted name ``T.M.x``, closure) in name order;
    ``label`` is the machine's dotted path.
    """

    __slots__ = ("transition", "target", "guard", "reads", "outputs", "updates")

    def __init__(self, t, label, slots, parameters, in_ids):
        self.transition = t
        self.target = t.target
        self.guard, self.reads = compile_expr(t.guard, slots, parameters, in_ids)
        self.outputs = {name: compile_expr(expr, slots, parameters, in_ids) for name, expr in t.outputs.items()}
        self.updates = tuple(
            (slots[var], f"{label}.{var}", compile_expr(expr, slots, parameters, in_ids)[0])
            for var, expr in t.sets.items()
        )


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
            base = lcm(base, node.parameters[name].value.denominator)
    return base


class Mode:
    """What one tuple of controller locations decides.

    ``selected``: per modal actor, the child its controller's location
    picks; ``enabled``: every actor but the children not picked;
    ``live``: each actor that is enabled and whose ancestors are;
    ``triggers``: the live actors' entries of ``Network.triggers``, in
    preorder, which a commit scans for present triggers;
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
        self.triggers = tuple(trigger for i, trigger in network.triggers if live[i])
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

        self.offsets = {}  # clock output port id -> its first tick (filled by _trigger)
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
        # (actor index, trigger) for each clock, delay and setter, in
        # preorder; a mode keeps the live ones
        self.triggers = tuple((i, self._trigger(i)) for i in self.preorder if self.kinds[i] in (CLOCK, DELAY, SETVAR))
        # Printing and propositions, in preorder; a state line lists the
        # machines by path.
        self.fsm_paths = tuple((i, ".".join(self.paths[i])) for i in self.preorder if self.kinds[i] == FSM)
        self.sorted_fsm_paths = tuple(sorted(self.fsm_paths, key=lambda entry: entry[1]))
        self.variable_groups = tuple(
            (".".join(self.paths[i]), tuple(self.slots[i].items()))
            for i in self.preorder
            if self.kinds[i] in (COMPOSITE, FSM) and self.slots[i]
        )

    def _trigger(self, i: int):
        """The (trigger port id, kind, payload) a clock, delay or setter
        compiles to: a clock's output with its request (period, 0, (port
        id, emitted status)), a delay's input with (delay, microstep,
        output port id), where a zero delay costs one microstep, and a
        setter's input with the value slot of its target in the nearest
        enclosing composite.  A clock's first tick goes into ``offsets``."""
        ids, path, kind = self.ids, self.paths[i], self.kinds[i]
        params = self.nodes[i].parameters
        if kind == CLOCK:
            out = ids[(path, "output", OUT)]
            self.offsets[out] = to_ticks(params["offset"].value, self.timebase)
            period = to_ticks(params["period"].value, self.timebase)
            return out, CLOCK, (period, 0, (out, Present(params["emit"])))
        if kind == DELAY:
            delay = to_ticks(params["delay"].value, self.timebase)
            return ids[(path, "input", IN)], DELAY, (delay, 1 if delay == 0 else 0, ids[(path, "output", OUT)])
        scope = self.parent[i]
        while self.kinds[scope] != COMPOSITE:
            scope = self.parent[scope]
        return ids[(path, "input", IN)], SETVAR, self.slots[scope][params["target"].value]

    def _compile(self, i: int, node: ActorNode, path) -> None:
        ids = self.ids
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
