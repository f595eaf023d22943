"""The hierarchical actor model.

A model is a tree of actors.  Leaves are clocks, timed delays, state
machines, and variable-setting actors; interior nodes are composites
(with connections and a variable store) and modal actors (a controller
state machine plus one refinement per controller location, of which
exactly one is live at any time).

All nodes are immutable snapshots.  Collections are sorted at
construction, so two trees describing the same model compare equal no
matter the declaration order.

A tree is the model as parsed, and a read-only view of a running
system: the engine compiles a tree's static side once (see network.py)
and keeps the dynamic side (port statuses, locations, variables, enabled
flags) in flat slots.  It builds a tree from slots only when a caller
reads ``SystemState.top``, with ``ActorNode.with_state``, which keeps the
existing port, transition and child tuples in their order and never
re-sorts them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Iterator, Optional

from .errors import NoSuchActor, ValidationError
from .expr import Expr, expr_text, referenced_names, referenced_ports
from .util import EMPTY_MAP, FrozenMap
from .values import UNKNOWN, IntVal, PortStatus, StringVal, TimeVal

IN = "in"
OUT = "out"

ActorPath = tuple  # tuple[str, ...], rooted at the top actor's own name

#: In connection endpoints, an empty actor path refers to the enclosing actor.
PARENT: ActorPath = ()

CLOCK = "clock"
DELAY = "delay"
FSM = "fsm"
SETVAR = "setvar"
COMPOSITE = "composite"
MODAL = "modal"

ATOMIC_KINDS = (CLOCK, DELAY, FSM, SETVAR)
ALL_KINDS = ATOMIC_KINDS + (COMPOSITE, MODAL)


def path_text(path: ActorPath) -> str:
    return ".".join(path) if path else "parent"


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # IN or OUT
    status: PortStatus = UNKNOWN


@dataclass(frozen=True)
class PortRef:
    """A port of some actor.

    Inside connection lists the path is relative: a single-segment path
    names a sibling (or, for composites, an inner actor), and the empty
    path names the enclosing actor itself.  Event targets use absolute
    paths rooted at the top actor.
    """

    actor: ActorPath
    port: str

    def __post_init__(self):
        object.__setattr__(self, "actor", tuple(self.actor))

    def __repr__(self):
        return f"{path_text(self.actor)}.{self.port}"


@dataclass(frozen=True)
class Connection:
    """One writer feeding one or more readers inside a composite."""

    source: PortRef
    sinks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "sinks", tuple(sorted(self.sinks, key=lambda r: (r.actor, r.port)))
        )


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    guard: Expr
    outputs: FrozenMap = EMPTY_MAP  # port name -> expression
    sets: FrozenMap = EMPTY_MAP  # variable name -> expression

    def __post_init__(self):
        object.__setattr__(self, "outputs", FrozenMap(self.outputs))
        object.__setattr__(self, "sets", FrozenMap(self.sets))

    def sort_key(self):
        return (
            self.source,
            self.target,
            expr_text(self.guard),
            tuple((k, expr_text(v)) for k, v in self.outputs.items()),
            tuple((k, expr_text(v)) for k, v in self.sets.items()),
        )


@dataclass(frozen=True)
class ActorNode:
    name: str
    kind: str
    ports: tuple = ()
    parameters: FrozenMap = EMPTY_MAP
    enabled: bool = True
    # State-machine payload.
    locations: tuple = ()
    init_location: Optional[str] = None
    curr_location: Optional[str] = None
    variables: FrozenMap = EMPTY_MAP  # state machines and composites
    transitions: tuple = ()
    # Composite / modal payload.
    inner: tuple = ()
    connections: tuple = ()
    # Modal payload.
    controller: Optional[str] = None
    refinements: FrozenMap = EMPTY_MAP  # controller location -> inner actor name

    def __post_init__(self):
        object.__setattr__(
            self, "ports", tuple(sorted(self.ports, key=lambda p: (p.name, p.direction)))
        )
        object.__setattr__(self, "parameters", FrozenMap(self.parameters))
        object.__setattr__(self, "locations", tuple(sorted(self.locations)))
        object.__setattr__(self, "variables", FrozenMap(self.variables))
        object.__setattr__(
            self, "transitions", tuple(sorted(self.transitions, key=Transition.sort_key))
        )
        object.__setattr__(self, "inner", tuple(sorted(self.inner, key=lambda a: a.name)))
        object.__setattr__(
            self,
            "connections",
            tuple(sorted(self.connections, key=lambda c: (c.source.actor, c.source.port))),
        )
        object.__setattr__(self, "refinements", FrozenMap(self.refinements))

    # The compiled static structure (see network.py), deliberately not a
    # dataclass field: it takes no part in equality, and ``replace`` (which
    # may change structure) drops it.  Unset, it reads as this default.
    _network = None

    def with_state(
        self, ports=None, inner=None, enabled=None, curr_location=None, variables=None
    ) -> "ActorNode":
        """This node with new dynamic contents and the same static structure.

        ``ports`` and ``inner`` must be the node's own tuples with only
        statuses or descendants' state changed, in the same (canonical)
        order; they are taken as they are, not sorted again.  Arguments
        left at None keep the current value.  The compiled network
        carries over, since nothing static changed.
        """
        node = object.__new__(ActorNode)
        put = object.__setattr__
        # Field by field, in declaration order, as __init__ would.
        put(node, "name", self.name)
        put(node, "kind", self.kind)
        put(node, "ports", self.ports if ports is None else ports)
        put(node, "parameters", self.parameters)
        put(node, "enabled", self.enabled if enabled is None else enabled)
        put(node, "locations", self.locations)
        put(node, "init_location", self.init_location)
        put(node, "curr_location", self.curr_location if curr_location is None else curr_location)
        put(node, "variables", self.variables if variables is None else variables)
        put(node, "transitions", self.transitions)
        put(node, "inner", self.inner if inner is None else inner)
        put(node, "connections", self.connections)
        put(node, "controller", self.controller)
        put(node, "refinements", self.refinements)
        if self._network is not None:
            put(node, "_network", self._network)
        return node

    # Convenience lookups (linear scans; the trees here are small). --------

    def child(self, name: str) -> Optional["ActorNode"]:
        for a in self.inner:
            if a.name == name:
                return a
        return None

    def port(self, name: str, direction: str) -> Optional[Port]:
        for p in self.ports:
            if p.name == name and p.direction == direction:
                return p
        return None

    def port_names(self, direction: str) -> tuple:
        return tuple(p.name for p in self.ports if p.direction == direction)

    def statuses(self, direction: str) -> dict:
        return {p.name: p.status for p in self.ports if p.direction == direction}


_DYNAMIC_FIELDS = ("ports", "enabled", "curr_location", "variables", "inner")
#: The fields a running model never changes.
STATIC_FIELDS = tuple(f.name for f in fields(ActorNode) if f.name not in _DYNAMIC_FIELDS)


def resolve(top: ActorNode, path) -> ActorNode:
    """Follow an absolute actor path (starting with the top actor's name)."""
    path = tuple(path)
    if not path or path[0] != top.name:
        raise NoSuchActor(path_text(path) if path else "<empty path>")
    node = top
    for i, name in enumerate(path[1:], start=2):
        nxt = node.child(name)
        if nxt is None:
            raise NoSuchActor(path_text(path[:i]))
        node = nxt
    return node


def iter_actors(top: ActorNode, live_only: bool = False) -> Iterator:
    """Yield (path, node, live) for every actor, depth first.

    ``live`` is true when the node and all of its ancestors are enabled;
    frozen refinements and everything beneath them report false.  With
    ``live_only`` those frozen subtrees are skipped entirely.
    """

    stack = [(top, (top.name,), True)]
    while stack:
        node, path, live = stack.pop()
        live = live and node.enabled
        if live_only and not live:
            continue
        yield path, node, live
        for child in reversed(node.inner):
            stack.append((child, path + (child.name,), live))


# Normalization. ------------------------------------------------------------


def normalize(top: ActorNode) -> ActorNode:
    """Fill in defaults and derived structure.  Idempotent.

    Clocks get their default offset/emit parameters, state machines a
    current location, and modal actors get the full wiring implied by
    their port lists: the controller mirrors every modal output as an
    input/output pair (its coupled ports) and sees every modal input,
    each refinement carries exactly the modal's ports, and the modal's
    connection list is the canonical fan-out of its inputs.
    """
    return _normalize(top)


def _normalize(node: ActorNode) -> ActorNode:
    if node.kind == CLOCK:
        params = dict(node.parameters)
        params.setdefault("offset", TimeVal(Fraction(0)))
        params.setdefault("emit", IntVal(1))
        return replace(node, parameters=FrozenMap(params))
    if node.kind == FSM:
        if node.curr_location is None and node.init_location is not None:
            node = replace(node, curr_location=node.init_location)
        return node
    if node.kind == COMPOSITE:
        return replace(node, inner=tuple(_normalize(a) for a in node.inner))
    if node.kind == MODAL:
        return _normalize_modal(node)
    return node


def _complete_ports(node: ActorNode, wanted) -> ActorNode:
    ports = list(node.ports)
    have = {(p.name, p.direction) for p in ports}
    for name, direction in wanted:
        if (name, direction) not in have:
            ports.append(Port(name, direction))
    return replace(node, ports=tuple(ports))


def _normalize_modal(modal: ActorNode) -> ActorNode:
    in_names = modal.port_names(IN)
    out_names = modal.port_names(OUT)
    inner = []
    refinement_names = set(modal.refinements.values())
    for child in modal.inner:
        child = _normalize(child)
        if child.name == modal.controller:
            wanted = [(n, IN) for n in in_names]
            wanted += [(n, IN) for n in out_names] + [(n, OUT) for n in out_names]
            child = _complete_ports(child, wanted)
        elif child.name in refinement_names:
            wanted = [(n, IN) for n in in_names] + [(n, OUT) for n in out_names]
            child = _complete_ports(child, wanted)
        inner.append(child)
    connections = []
    sink_names = sorted(refinement_names | {modal.controller} if modal.controller else set())
    for name in in_names:
        sinks = tuple(PortRef((a,), name) for a in sink_names)
        connections.append(Connection(PortRef(PARENT, name), sinks))
    return replace(modal, inner=tuple(inner), connections=tuple(connections))


# Validation. ---------------------------------------------------------------


def validate(top: ActorNode) -> None:
    """Check structural well-formedness; raise ValidationError with every problem."""
    problems = []
    if top.kind != COMPOSITE:
        problems.append(f"{top.name}: top-level actor must be a composite")
    _validate_node(top, (top.name,), None, problems)
    if problems:
        raise ValidationError(sorted(problems))


def _is_identifier(name: str) -> bool:
    return bool(name) and name != "parent" and "." not in name and not name[0].isdigit()


def _check_time_param(node, name, problems, prefix, required, positive=False):
    value = node.parameters.get(name)
    if value is None:
        if required:
            problems.append(f"{prefix}: missing parameter '{name}'")
        return
    if isinstance(value, IntVal):
        amount = Fraction(value.value)
    elif isinstance(value, TimeVal):
        amount = value.value
    else:
        problems.append(f"{prefix}: parameter '{name}' must be a time amount")
        return
    if amount < 0 or (positive and amount == 0):
        bound = "positive" if positive else "non-negative"
        problems.append(f"{prefix}: parameter '{name}' must be {bound}")


def _validate_expressions(node: ActorNode, prefix: str, problems) -> None:
    bound = set(node.variables) | set(node.parameters)
    inputs = set(node.port_names(IN))
    outputs = set(node.port_names(OUT))

    def check(expr: Expr, where: str, port_whitelist):
        for name in referenced_names(expr):
            if name not in bound:
                problems.append(f"{prefix}: {where} references unbound name '{name}'")
        for port in referenced_ports(expr):
            if port not in port_whitelist:
                problems.append(f"{prefix}: {where} reads unknown port '{port}'")

    for t in node.transitions:
        where = f"transition {t.source}->{t.target}"
        if t.source not in node.locations:
            problems.append(f"{prefix}: {where} leaves unknown location")
        if t.target not in node.locations:
            problems.append(f"{prefix}: {where} enters unknown location")
        check(t.guard, f"guard of {where}", inputs)
        for port, expr in t.outputs.items():
            if port not in outputs:
                problems.append(f"{prefix}: {where} writes unknown output '{port}'")
            check(expr, f"output of {where}", inputs)
        for var, expr in t.sets.items():
            if var not in node.variables:
                problems.append(f"{prefix}: {where} sets unknown variable '{var}'")
            check(expr, f"update of {where}", inputs)


def _validate_connections(node: ActorNode, prefix: str, problems) -> None:
    seen_sinks = set()
    for conn in node.connections:
        src = conn.source
        if src.actor == PARENT:
            if node.port(src.port, IN) is None:
                problems.append(f"{prefix}: connection source {src!r} is not an input port")
        else:
            child = node.child(src.actor[0]) if len(src.actor) == 1 else None
            if child is None:
                problems.append(f"{prefix}: connection source names unknown actor {src!r}")
            elif child.port(src.port, OUT) is None:
                problems.append(f"{prefix}: connection source {src!r} is not an output port")
        for sink in conn.sinks:
            if sink.actor == PARENT:
                if node.port(sink.port, OUT) is None:
                    problems.append(f"{prefix}: connection sink {sink!r} is not an output port")
            else:
                child = node.child(sink.actor[0]) if len(sink.actor) == 1 else None
                if child is None:
                    problems.append(f"{prefix}: connection sink names unknown actor {sink!r}")
                elif child.port(sink.port, IN) is None:
                    problems.append(f"{prefix}: connection sink {sink!r} is not an input port")
            key = (sink.actor, sink.port)
            if key in seen_sinks:
                problems.append(f"{prefix}: port {sink!r} has more than one writer")
            seen_sinks.add(key)


def _nearest_composite_vars(ancestors):
    for node in reversed(ancestors):
        if node.kind == COMPOSITE:
            return node.variables
    return None


def _validate_node(node, path, ancestors, problems, parent_modal=None):
    ancestors = ancestors or []
    prefix = path_text(path)
    if not _is_identifier(node.name):
        problems.append(f"{prefix}: invalid actor name {node.name!r}")
    if node.kind not in ALL_KINDS:
        problems.append(f"{prefix}: unknown actor kind {node.kind!r}")
        return

    is_controller = parent_modal is not None and node.name == parent_modal.controller
    seen_ports = set()
    for p in node.ports:
        if p.direction not in (IN, OUT):
            problems.append(f"{prefix}: port {p.name} has invalid direction {p.direction!r}")
        if (p.name, p.direction) in seen_ports:
            problems.append(f"{prefix}: duplicate port {p.name} ({p.direction})")
        seen_ports.add((p.name, p.direction))
    if not is_controller:
        both = {n for n, d in seen_ports if d == IN} & {n for n, d in seen_ports if d == OUT}
        if both and node.kind == FSM:
            names = ", ".join(sorted(both))
            problems.append(
                f"{prefix}: input/output port pairs ({names}) are only allowed on "
                "a modal controller"
            )

    if node.kind == CLOCK:
        if {(p.name, p.direction) for p in node.ports} != {("output", OUT)}:
            problems.append(f"{prefix}: a clock has exactly one output port 'output'")
        _check_time_param(node, "period", problems, prefix, required=True, positive=True)
        _check_time_param(node, "offset", problems, prefix, required=False)
    elif node.kind == DELAY:
        if {(p.name, p.direction) for p in node.ports} != {("input", IN), ("output", OUT)}:
            problems.append(f"{prefix}: a delay has exactly ports 'input' and 'output'")
        _check_time_param(node, "delay", problems, prefix, required=True)
    elif node.kind == SETVAR:
        if {(p.name, p.direction) for p in node.ports} != {("input", IN)}:
            problems.append(f"{prefix}: a variable setter has exactly one input port 'input'")
        target = node.parameters.get("target")
        if not isinstance(target, StringVal):
            problems.append(f"{prefix}: missing string parameter 'target'")
        else:
            scope = _nearest_composite_vars(ancestors)
            if scope is None or target.value not in scope:
                problems.append(
                    f"{prefix}: target variable '{getattr(target, 'value', target)}' is not "
                    "declared by the enclosing composite"
                )
    elif node.kind == FSM:
        if not node.locations:
            problems.append(f"{prefix}: state machine has no locations")
        if node.init_location not in node.locations:
            problems.append(f"{prefix}: initial location {node.init_location!r} undeclared")
        if node.curr_location is not None and node.curr_location not in node.locations:
            problems.append(f"{prefix}: current location {node.curr_location!r} undeclared")
        _validate_expressions(node, prefix, problems)
    elif node.kind in (COMPOSITE, MODAL):
        names = set()
        for child in node.inner:
            if child.name in names:
                problems.append(f"{prefix}: duplicate inner actor '{child.name}'")
            names.add(child.name)
        if node.kind == COMPOSITE:
            _validate_connections(node, prefix, problems)
        else:
            _validate_modal(node, prefix, problems)
        for child in node.inner:
            _validate_node(
                child,
                path + (child.name,),
                ancestors + [node],
                problems,
                parent_modal=node if node.kind == MODAL else None,
            )


def _validate_modal(node: ActorNode, prefix: str, problems) -> None:
    controller = node.child(node.controller) if node.controller else None
    if controller is None:
        problems.append(f"{prefix}: controller {node.controller!r} is not an inner actor")
        return
    if controller.kind != FSM:
        problems.append(f"{prefix}: controller {node.controller!r} must be a state machine")
        return
    mapped = set()
    for location, target in node.refinements.items():
        if location not in controller.locations:
            problems.append(f"{prefix}: refinement for unknown location '{location}'")
        child = node.child(target)
        if child is None:
            problems.append(f"{prefix}: refinement '{target}' is not an inner actor")
        elif target == node.controller:
            problems.append(f"{prefix}: the controller cannot refine a location")
        mapped.add(target)
    for location in controller.locations:
        if location not in node.refinements:
            problems.append(f"{prefix}: refinement map missing location '{location}'")
    for child in node.inner:
        if child.name != node.controller and child.name not in mapped:
            problems.append(
                f"{prefix}: inner actor '{child.name}' is neither the controller nor "
                "a refinement"
            )
    expected = _normalize_modal(node).connections
    if node.connections != expected:
        problems.append(
            f"{prefix}: modal actors take no explicit connections (wiring is implied "
            "by the port lists)"
        )
