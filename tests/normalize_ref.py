"""Reference normalization: the earlier design, which rebuilt nodes.

Every clock and composite, and every state machine that gains a current
location, is rebuilt through ``dataclasses.replace``, so every tuple is
sorted again; a modal actor's controller and refinements are rebuilt a
second time for their implied ports.  ``model.normalize`` builds each
changed node once; it is tested against this.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from de_fixpoint.model import CLOCK, COMPOSITE, FSM, IN, MODAL, OUT, ActorNode, Port
from de_fixpoint.util import FrozenMap
from de_fixpoint.values import IntVal, TimeVal


def reference_normalize(node: ActorNode) -> ActorNode:
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
        return replace(node, inner=tuple(reference_normalize(a) for a in node.inner))
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
        child = reference_normalize(child)
        if child.name == modal.controller:
            wanted = [(n, IN) for n in in_names]
            wanted += [(n, IN) for n in out_names] + [(n, OUT) for n in out_names]
            child = _complete_ports(child, wanted)
        elif child.name in refinement_names:
            wanted = [(n, IN) for n in in_names] + [(n, OUT) for n in out_names]
            child = _complete_ports(child, wanted)
        inner.append(child)
    return replace(modal, inner=tuple(inner))
