"""Reference semantics for one instant's port fixed point.

This is the engine's earlier design, kept as the reference the nets and
the plans are tested against: every connection of a live composite,
and each live modal actor's implied wiring, is a copy rule that moves a
known source status to its live sinks, and every live state machine is
an ``_FsmRule``, which decides with ``decide_firing`` and proposes its
outputs.  Every live machine runs, in every instant.  Rules run from a
worklist: a rule runs again only when a port it reads resolves, and
``rng`` shuffles the initial schedule.  The wiring is read from the
tree, a modal actor's from its port lists, controller and refinement
map, not from ``Network.wires``, and each machine's ports from the tree
and ``Network.ids``; what it shares with the engine is the compiled
transitions, taken from the engine's machine so that firing decisions
compare by identity, the port-name format of ``fire._key_text``, port
ids and the mode's live flags.

``reference_fixpoint(state, events)`` resolves the instant at which
``events`` are due in ``state``, as ``fire.compute_fixpoint`` does: it
clears every port itself, writes each event onto its own port, and
leaves the rest of the event's net to the copy rules.  Two drivers
that disagree meet in a copy rule, which raises.
"""

from __future__ import annotations

from collections import deque

from de_fixpoint.errors import CausalityCycle, NondeterministicFsm, ValidationError
from de_fixpoint.fire import _key_text, _machine
from de_fixpoint.model import CLOCK, COMPOSITE, DELAY, FSM, IN, MODAL, OUT, PARENT
from de_fixpoint.values import ABSENT, UNKNOWN, BoolVal, Present

_UNDECIDED = (None, None)
_NOFIRE = ("nofire", None)
_NAMES_NONE = {}  # the outputs a machine that does not fire names; never written


def decide_firing(rule, location, st, values):
    """Decide whether a state machine fires this iteration.

    ``st`` holds every port's status by port id and ``values`` every
    variable's value by slot.  Returns ("fire", transition) with the
    compiled transition that fires, ("nofire", None), or (None, None)
    when the decision still depends on ports that are unknown.  Raises
    NondeterministicFsm when the machine would fire with more than one
    true guard.  The decision is stable: once it returns a non-None
    verdict, growing port knowledge can never change it.

    ``rule`` is the machine's ``_FsmRule``.  The machine comes from a
    validated tree, so every port a guard reads is one of its inputs,
    and ``reads`` lists them all.
    """
    outgoing = rule.outgoing[location]
    any_present = False
    all_known = True
    for pid in rule.reads:
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
            raise ValidationError([f"{rule.label}: guard of {t.source}->{t.target} is not boolean"])
        if v.value:
            trues.append(entry)
    if len(trues) >= 2 and any_present:
        raise NondeterministicFsm(rule.label, [(e.transition.source, e.target) for e in trues])
    if not trues:
        return _NOFIRE
    if len(trues) == 1 and any_present:
        return ("fire", trues[0])
    if all_known and not any_present:
        # Every input is known absent: the machine cannot fire.
        return _NOFIRE
    return _UNDECIDED


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

    def __init__(self, index: int, network):
        node, path, ids = network.nodes[index], network.paths[index], network.ids
        self.index = index
        self.label = ".".join(path)
        self.depth = len(path)
        twins = network.coupled.get(index, {})
        # (output name, its port id, the twin input's port id when coupled)
        self.outputs = tuple((name, ids[(path, name, OUT)], twins.get(name)) for name in node.port_names(OUT))
        self.reads = tuple(ids[(path, name, IN)] for name in node.port_names(IN))
        self.outgoing = _machine(network, index).outgoing

    def step(self, st, locations, values, decided):
        index = self.index
        verdict = decided.get(index)
        if verdict is None or verdict[0] is None:
            verdict = decided[index] = decide_firing(self, locations[index], st, values)
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
        # Known sinks are proposed too: the driver loop cross-checks them.
        return [(k, s) for k in self.sinks]


def _rules(network, mode):
    """(rules deepest first, live ports, unwritten ports) of a mode."""
    live = mode.live
    ids = network.ids
    nodes = network.nodes
    ports = [pid for i in network.preorder if live[i] for pid in network.port_ids[i]]
    live_ports = set(ports)
    rules = []
    produced = set()
    event_sourced = []

    def add_copy(src, sinks, depth):
        sinks = [k for k in sinks if k in live_ports]
        if sinks:
            rules.append(_CopyRule(src, sinks, depth))
            produced.update(sinks)

    selected = {info.index: (info, r) for info, r in zip(network.modals, mode.selected)}
    for i in network.preorder:
        if not live[i]:
            continue
        path, kind, node = network.paths[i], network.kinds[i], nodes[i]
        if kind in (CLOCK, DELAY):
            pid = ids[(path, "output", OUT)]
            event_sourced.append(pid)
            produced.add(pid)
        elif kind == FSM:
            rule = _FsmRule(i, network)
            rules.append(rule)
            produced.update(pid for _, pid, _ in rule.outputs)
        if kind == COMPOSITE:
            for c in node.connections:
                if c.source.actor == PARENT:
                    src = ids[(path, c.source.port, IN)]
                else:
                    src = ids[(path + c.source.actor, c.source.port, OUT)]
                sinks = [
                    ids[(path, s.port, OUT) if s.actor == PARENT else (path + s.actor, s.port, IN)]
                    for s in c.sinks
                ]
                add_copy(src, sinks, len(network.keys[src][0]))
        if kind == MODAL:
            # Each modal input feeds the same input of the controller and
            # of every refinement.
            children = sorted({node.controller, *node.refinements.values()})
            for q in node.port_names(IN):
                add_copy(ids[(path, q, IN)], [ids[(path + (c,), q, IN)] for c in children], len(path))
            info, refinement = selected[i]
            ctrl = network.paths[info.controller]
            for q in info.outputs:
                if refinement is not None and live[refinement]:
                    inner = network.paths[refinement]
                    add_copy(ids[(inner, q, OUT)], [ids[(ctrl, q, IN)]], len(inner))
                add_copy(ids[(ctrl, q, OUT)], [ids[(path, q, OUT)]], len(ctrl))
    unwritten = event_sourced + [k for k in ports if k not in produced]
    return sorted(rules, key=lambda r: -r.depth), ports, unwritten


def reference_fixpoint(state, events, bottom_as_absent=False, rng=None):
    """(statuses, {actor index: compiled transition} of the machines that
    fire, applications, stalled port keys) for the instant of ``state``
    at which ``events`` are due; raises CausalityCycle as
    ``fire.compute_fixpoint`` does."""
    network = state.network
    rules, ports, unwritten = _rules(network, state.mode)
    dependents = [[] for _ in range(network.size)]
    for n, rule in enumerate(rules):
        for pid in rule.reads:
            dependents[pid].append(n)
    st = [UNKNOWN] * network.size
    for pid, status in events:
        st[pid] = status
    applications = 0
    for pid in unwritten:
        if st[pid] is UNKNOWN:
            st[pid] = ABSENT
            applications += 1
    initial = {n for n, rule in enumerate(rules) if isinstance(rule, _FsmRule)}
    for pid in ports:
        if st[pid] is not UNKNOWN:
            initial.update(dependents[pid])
    schedule = sorted(initial)
    if rng is not None:
        rng.shuffle(schedule)
    pending = deque(schedule)
    queued = [False] * len(rules)
    for n in schedule:
        queued[n] = True
    decided = {}
    while pending:
        n = pending.popleft()
        queued[n] = False
        for pid, status in rules[n].step(st, state.locations, state.values, decided):
            old = st[pid]
            if old is not UNKNOWN:
                if old != status:
                    raise AssertionError(f"port {_key_text(network.keys[pid])} driven to two different statuses")
                continue
            st[pid] = status
            applications += 1
            for d in dependents[pid]:
                if not queued[d]:
                    queued[d] = True
                    pending.append(d)
    fired = {}
    for rule in rules:
        if isinstance(rule, _FsmRule):
            kind, entry = decided[rule.index]
            if kind == "fire":
                fired[rule.index] = entry
    stalled = sorted(network.keys[pid] for pid in ports if st[pid] is UNKNOWN)
    if stalled and not bottom_as_absent:
        raise CausalityCycle([_key_text(k) for k in stalled])
    for key in stalled:
        st[network.ids[key]] = ABSENT
    return tuple(st), fired, applications, tuple(stalled)
