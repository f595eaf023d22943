"""The hierarchical actor model.

A model is a tree of actors.  Leaves are clocks, timed delays, state
machines, and variable-setting actors; interior nodes are composites
(with connections and a variable store) and modal actors (a controller
state machine plus one refinement per controller location, of which
exactly one is live at any time).

All nodes are immutable snapshots.  Collections are sorted at
construction, so two trees describing the same model compare equal no
matter the declaration order.

A tree is plain data: the model as parsed, and nothing more.  A tree
holds no run-time state: a port has a name and a direction and no
status, and a state machine has its initial location and no current
one.  The engine reads a tree once, compiling its static side (see
network.py) and taking its initial locations and starting variables
into flat slots; the running system is those slots (see state.py), and
no tree is built from them.  Which refinements run, and how a modal
actor's inputs reach its children, follow from the tree; the network
derives both, and no tree records either.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .errors import ValidationError
from .expr import Expr, expr_text, references
from .util import EMPTY_MAP, FrozenMap, sorted_tuple
from .values import IntVal, StringVal, TimeVal

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
        object.__setattr__(self, "sinks", sorted_tuple(self.sinks, _ref_key))


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    guard: Expr
    outputs: FrozenMap = EMPTY_MAP  # port name -> expression
    sets: FrozenMap = EMPTY_MAP  # variable name -> expression

    def __post_init__(self):
        object.__setattr__(self, "outputs", FrozenMap(self.outputs) if self.outputs else EMPTY_MAP)
        object.__setattr__(self, "sets", FrozenMap(self.sets) if self.sets else EMPTY_MAP)


@dataclass(frozen=True)
class ActorNode:
    name: str
    kind: str
    ports: tuple = ()
    parameters: FrozenMap = EMPTY_MAP
    # State-machine payload.
    locations: tuple = ()
    init_location: Optional[str] = None
    variables: FrozenMap = EMPTY_MAP  # state machines and composites
    transitions: tuple = ()
    # Composite / modal payload.
    inner: tuple = ()
    connections: tuple = ()
    # Modal payload.
    controller: Optional[str] = None
    refinements: FrozenMap = EMPTY_MAP  # controller location -> inner actor name

    def __post_init__(self):
        # Fewer than two items are not sorted, and an empty map is EMPTY_MAP.
        put = object.__setattr__
        put(self, "ports", sorted_tuple(self.ports, _port_key))
        put(self, "parameters", FrozenMap(self.parameters) if self.parameters else EMPTY_MAP)
        put(self, "locations", sorted_tuple(self.locations))
        put(self, "variables", FrozenMap(self.variables) if self.variables else EMPTY_MAP)
        put(self, "transitions", _canonical_transitions(self.transitions))
        put(self, "inner", sorted_tuple(self.inner, _name_key))
        put(self, "connections", sorted_tuple(self.connections, _source_key))
        put(self, "refinements", FrozenMap(self.refinements) if self.refinements else EMPTY_MAP)

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


_port_key = attrgetter("name", "direction")
_ref_key = attrgetter("actor", "port")
_source_key = attrgetter("source.actor", "source.port")
_name_key = attrgetter("name")
_ends = attrgetter("source", "target")


def _transition_text(t: Transition):
    return (
        t.source,
        t.target,
        expr_text(t.guard),
        tuple((k, expr_text(v)) for k, v in t.outputs.items()),
        tuple((k, expr_text(v)) for k, v in t.sets.items()),
    )


def _canonical_transitions(transitions) -> tuple:
    """Transitions by source and target, then by their expressions' text.

    The text is rendered only when two transitions join the same two
    locations, which few machines have.
    """
    ordered = sorted_tuple(transitions, _ends)
    if len(set(map(_ends, ordered))) < len(ordered):
        ordered = tuple(sorted(ordered, key=_transition_text))
    return ordered


_DYNAMIC_FIELDS = ("variables", "inner")
#: The fields a running model never changes.
STATIC_FIELDS = tuple(f.name for f in fields(ActorNode) if f.name not in _DYNAMIC_FIELDS)


# Normalization. ------------------------------------------------------------


def normalize(top: ActorNode) -> ActorNode:
    """Fill in defaults and derived structure.  Idempotent.

    Clocks get their default offset/emit parameters, and the children of
    modal actors the ports their implied wiring names: the controller
    mirrors every modal output as an input/output pair (its coupled
    ports) and sees every modal input, and each refinement carries
    exactly the modal's ports.  The wiring itself, a modal input fanned
    out to the controller and every refinement, is the network's to
    derive (see network.py).
    """
    return _normalize(top)


_CLOCK_DEFAULTS = {"offset": TimeVal(Fraction(0)), "emit": IntVal(1)}


def _normalize(node: ActorNode, wanted=()) -> ActorNode:
    """``node`` normalized, with the (name, direction) ports in ``wanted`` added.

    A node is rebuilt only when something changes, and then once, from
    fields already in canonical order.
    """
    changes = {}
    if node.kind == CLOCK:
        missing = {k: v for k, v in _CLOCK_DEFAULTS.items() if k not in node.parameters}
        if missing:
            changes["parameters"] = FrozenMap({**node.parameters, **missing})
    elif node.kind in (COMPOSITE, MODAL):
        inner = tuple(_normalize(child, _implied_ports(node, child)) for child in node.inner)
        if any(new is not old for new, old in zip(inner, node.inner)):
            changes["inner"] = inner
    if wanted:
        have = {(p.name, p.direction) for p in node.ports}
        extra = tuple(Port(n, d) for n, d in wanted if (n, d) not in have)
        if extra:
            ports = node.ports + extra
            changes["ports"] = sorted_tuple(ports, _port_key)
    if not changes:
        return node
    # ``replace`` would run __post_init__ and sort every field again.
    rebuilt = object.__new__(ActorNode)
    rebuilt.__dict__.update(vars(node), **changes)
    return rebuilt


def _implied_ports(parent: ActorNode, child: ActorNode) -> list:
    """The (name, direction) ports a modal actor's wiring gives ``child``."""
    if parent.kind != MODAL:
        return []
    ins = [(n, IN) for n in parent.port_names(IN)]
    outs = [(n, OUT) for n in parent.port_names(OUT)]
    if child.name == parent.controller:
        return ins + [(n, IN) for n, _ in outs] + outs
    if child.name in parent.refinements.values():
        return ins + outs
    return []


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
    if not isinstance(value, (IntVal, TimeVal)):
        problems.append(f"{prefix}: parameter '{name}' must be a time amount")
        return
    # An integer, or a Fraction: either compares with 0.
    amount = value.value
    if amount < 0 or (positive and amount == 0):
        bound = "positive" if positive else "non-negative"
        problems.append(f"{prefix}: parameter '{name}' must be {bound}")


def _validate_expressions(node: ActorNode, prefix: str, problems) -> None:
    bound = set(node.variables) | set(node.parameters)
    inputs = set(node.port_names(IN))
    outputs = set(node.port_names(OUT))

    def check(expr: Expr, where: str):
        try:
            names, ports = references(expr)
        except ValueError as err:
            problems.append(f"{prefix}: {where} {err}")
            return
        for name in names:
            if name not in bound:
                problems.append(f"{prefix}: {where} references unbound name '{name}'")
        for port in ports:
            if port not in inputs:
                problems.append(f"{prefix}: {where} reads unknown port '{port}'")

    for t in node.transitions:
        where = f"transition {t.source}->{t.target}"
        if t.source not in node.locations:
            problems.append(f"{prefix}: {where} leaves unknown location")
        if t.target not in node.locations:
            problems.append(f"{prefix}: {where} enters unknown location")
        check(t.guard, f"guard of {where}")
        for port, expr in t.outputs.items():
            if port not in outputs:
                problems.append(f"{prefix}: {where} writes unknown output '{port}'")
            check(expr, f"output of {where}")
        for var, expr in t.sets.items():
            if var not in node.variables:
                problems.append(f"{prefix}: {where} sets unknown variable '{var}'")
            check(expr, f"update of {where}")


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
    if node.connections:
        problems.append(
            f"{prefix}: modal actors take no explicit connections (wiring is implied "
            "by the port lists)"
        )
