"""The static side of a model, compiled once.

A tree mixes what never changes while a model runs (actor names and
kinds, ports, parameters, transitions, connections, refinement maps)
with what every iteration rewrites (port statuses, locations, variables,
enabled flags).  A :class:`Network` indexes the static side once: actors
with their paths, parents and children; every port as an integer id;
connection copy tables; each state machine's input and output ports and
the ports each of its transitions reads; the wiring of modal actors; and
the composite each variable setter writes.  The fixed point caches its
rule sets here too, one per mode configuration.

``initialize`` compiles the network and caches it on the starting
tree's root, and ``ActorNode.with_state`` carries it to every tree the
engine derives from there; a tree built any other way compiles its own
on first use.  :func:`map_ports` is the one rebuild of a tree's dynamic
state: the fixed point writes port statuses through it, and
``initialize`` and ``postfire`` write locations, variables and enabled
flags through it, so every commit is one rebuild.
"""

from __future__ import annotations

from .expr import referenced_ports
from .model import COMPOSITE, FSM, IN, MODAL, OUT, PARENT, SETVAR, ActorNode, Port


class FsmInfo:
    """A state machine's port ids and compiled transitions."""

    def __init__(self, path, node: ActorNode, ids):
        self.in_ids = {n: ids[(path, n, IN)] for n in node.port_names(IN)}
        self.out_ids = {n: ids[(path, n, OUT)] for n in node.port_names(OUT)}
        # location -> ((transition, ports its guard reads,
        #               {output: ports its expression reads}), ...)
        outgoing = {}
        for t in node.transitions:
            entry = (
                t,
                referenced_ports(t.guard),
                {name: referenced_ports(expr) for name, expr in t.outputs.items()},
            )
            outgoing.setdefault(t.source, []).append(entry)
        self.outgoing = {loc: tuple(entries) for loc, entries in outgoing.items()}


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


class Network:
    def __init__(self, top: ActorNode):
        # Actors are numbered breadth first, so a tree's actors come out in
        # index order from one cheap sweep (see nodes_of); ``preorder``
        # lists them depth first, the order iter_actors reports them in.
        # Ports are numbered actor by actor, each actor's in canonical order,
        # so a tree's port statuses come out in id order the same way.
        self.paths = []  # actor paths
        self.kinds = []
        self.parent = []  # index of the parent actor, -1 for the root
        self.children = []  # child indices, in canonical order
        self.index = {}  # actor path -> index
        self.keys = []  # port id -> port key (path, name, direction)
        self.port_ids = []  # per actor: its port ids, in canonical port order
        self.ids = {}  # port key -> port id
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
            self.port_ids.append(tuple(ids))
        self.size = len(self.keys)

        self.fsms = {}  # index -> FsmInfo
        self.copies = {}  # composite/modal index -> ((source id, sink ids), ...)
        self.modals = []  # ModalInfo, in actor order
        self.coupled = {}  # controller index -> the modal's output names
        self.scope = {}  # variable-setter index -> enclosing composite index or None
        self.rule_sets = {}  # mode configuration -> rule set (filled by fire)
        for i, node in enumerate(nodes):
            self._compile(i, node, self.paths[i])
        self.preorder = []
        stack = [0]
        while stack:
            i = stack.pop()
            self.preorder.append(i)
            stack.extend(reversed(self.children[i]))

    def _compile(self, i: int, node: ActorNode, path) -> None:
        ids = self.ids
        if node.kind == FSM:
            self.fsms[i] = FsmInfo(path, node, ids)
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
        if node.kind == SETVAR:
            self.scope[i] = self._enclosing_composite(i)

    def _enclosing_composite(self, i: int):
        """The nearest proper ancestor of actor ``i`` that is a composite."""
        j = self.parent[i]
        while j >= 0 and self.kinds[j] != COMPOSITE:
            j = self.parent[j]
        return j if j >= 0 else None

    def nodes_of(self, top: ActorNode) -> list:
        """The actors of a tree with this structure, in index order."""
        nodes = [top]
        for node in nodes:
            nodes.extend(node.inner)
        return nodes

    def statuses_of(self, nodes) -> list:
        """Every port's status, in port id order."""
        return [p.status for node in nodes for p in node.ports]

    def live(self, nodes) -> list:
        """Per actor: it and all its ancestors are enabled."""
        live = []
        parent = self.parent
        for i, node in enumerate(nodes):
            p = parent[i]
            live.append(node.enabled and (p < 0 or live[p]))
        return live


def network_of(top: ActorNode) -> Network:
    """The compiled structure of ``top``'s tree, compiled on first use."""
    network = top._network
    if network is None:
        network = Network(top)
        object.__setattr__(top, "_network", network)
    return network


def map_ports(top: ActorNode, statuses=None, changes=None) -> ActorNode:
    """Rebuild a tree with new dynamic state; the one way a tree is rewritten.

    ``statuses``, when given, is every port's new status, indexed by port
    id (see Network).  ``changes`` maps an actor index to the other
    ``ActorNode.with_state`` arguments for that actor (``curr_location``,
    ``variables``, ``enabled``).  The rebuild relies on collections being
    canonical once built: it keeps every port and child tuple in its
    order and never re-sorts.  Ports, and whole subtrees, that come back
    unchanged are shared with the old tree rather than copied.
    """
    if statuses is None and not changes:
        return top
    network = network_of(top)
    changes = changes or {}
    nodes = network.nodes_of(top)
    rebuilt = list(nodes)
    children = network.children
    port_ids = network.port_ids
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        new_ports = None
        if statuses is not None:
            for j, (p, pid) in enumerate(zip(node.ports, port_ids[i])):
                old = p.status
                status = statuses[pid]
                if status is not old and status != old:
                    if new_ports is None:
                        new_ports = list(node.ports)
                    new_ports[j] = Port(p.name, p.direction, status)
        inner = None
        kids = children[i]
        for c in kids:
            if rebuilt[c] is not nodes[c]:
                # Children have consecutive indices.
                inner = tuple(rebuilt[kids[0] : kids[-1] + 1])
                break
        change = changes.get(i)
        if new_ports is not None or inner is not None or change:
            rebuilt[i] = node.with_state(
                ports=tuple(new_ports) if new_ports is not None else None,
                inner=inner,
                **(change or {}),
            )
    return rebuilt[0]
