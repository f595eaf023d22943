"""Seeded `.model` text for the three synthetic model families.

* crossings: pedestrian crossings, each driven by its own clock, with
  pairwise-coprime periods.  The lasso closes after the hyperperiod of
  all crossings, so it stresses the state graph and the checker.
* chain: a clock feeding K zero-delay hops.  Every hop costs one
  microstep, so it stresses the executor's iteration loop.
* modal: modal actors nested D levels deep, each switching refinements
  on its own counter.  It stresses freezing and rule building.

The seed only picks values that keep the work per seed comparable.  The
expression language has no `%`, so counters wrap with a pair of guarded
transitions; modal actors take no explicit `connect` (their wiring is
implied by the port lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Family:
    """One generated model plus what is known about it by construction."""

    name: str
    text: str
    facts: dict = field(default_factory=dict)


def _block(kind: str, name: str, body: list) -> list:
    return [f"{kind} {name} {{"] + [f"  {line}" for line in body] + ["}"]


def _document(top: str, body: list) -> str:
    return "\n".join(["format 1", ""] + _block("composite", top, body)) + "\n"


def _wrapping(source: str, target: str, modulus: int, extra: str = "") -> list:
    """Two transitions that count ticks of Sec and leave after ``modulus`` of them."""
    stay = f"transition {source} -> {source} {{ guard isPresent(Sec) && count < {modulus - 1} set count = count + 1 }}"
    leave = f"transition {source} -> {target} {{ guard isPresent(Sec) && count == {modulus - 1}{extra} set count = 0 }}"
    return [stay, leave]


def crossings(rng, periods, cycle: int) -> Family:
    """Pedestrian crossings with coprime clock periods.

    Crossing i has a clock of period p_i that first ticks at i + shift,
    and a car light that stays red R ticks and green G ticks, with
    R + G = cycle - 2 split evenly.  The pedestrian light is told to walk
    and stop through half-unit delays, which no integer clock tick can
    meet.  It stops half a tick after the car leaves red and walks half a
    tick after the car is red again, so a green car and a walking
    pedestrian never overlap.

    The seed picks only ``shift``, below every p_i - i so that no offset
    wraps past its period: seeds translate one behaviour in time.  The
    clocks' relative phases and the red/green split decide which product
    states the checker explores; seeding them moved the work of the
    median check (Büchi guard checks and proposition calls) by a fifth
    between seeds.
    """
    top = "Crossings"
    body = []
    for i in range(len(periods)):
        body += [f"var C{i} = 0", f"var P{i} = 0"]
    shift = rng.randrange(min(period - i for i, period in enumerate(periods)))
    red = (cycle - 2) // 2
    red_ticks = []
    for i, period in enumerate(periods):
        red_ticks.append(red)
        body += _block("clock", f"Clock{i}", [f"period = {period}", f"offset = {i + shift}"])
        car = ["input Sec", "output Go", "output Lamp", "output Stop", "var count = 0", "initial red"]
        car += _wrapping("red", "ry", red, " output Stop = 1")
        car.append("transition ry -> green { guard isPresent(Sec) output Lamp = 1 }")
        car += _wrapping("green", "yellow", cycle - 2 - red, " output Lamp = 0")
        car.append("transition yellow -> red { guard isPresent(Sec) output Go = 1 }")
        body += _block("fsm", f"Car{i}", car)
        ped = [
            "input Go", "input Stop", "output Walk", "initial stop",
            "transition stop -> walk { guard isPresent(Go) output Walk = 1 }",
            "transition walk -> stop { guard isPresent(Stop) output Walk = 0 }",
        ]
        body += _block("fsm", f"Ped{i}", ped)
        body += _block("delay", f"GoWire{i}", ["delay = 0.5"])
        body += _block("delay", f"StopWire{i}", ["delay = 0.5"])
        body += _block("setvar", f"SetC{i}", [f'target = "C{i}"'])
        body += _block("setvar", f"SetP{i}", [f'target = "P{i}"'])
        body += [
            f"connect Clock{i}.output -> Car{i}.Sec",
            f"connect Car{i}.Go -> GoWire{i}.input",
            f"connect Car{i}.Stop -> StopWire{i}.input",
            f"connect GoWire{i}.output -> Ped{i}.Go",
            f"connect StopWire{i}.output -> Ped{i}.Stop",
            f"connect Car{i}.Lamp -> SetC{i}.input",
            f"connect Ped{i}.Walk -> SetP{i}.input",
        ]
    name = "crossings-" + "-".join(map(str, periods))
    return Family(name, _document(top, body), {"periods": periods, "red_ticks": red_ticks})


def chain(rng, hops: int, modulus_range=(3, 5)) -> Family:
    """A clock feeding ``hops`` zero-delay hops into a wrapping counter."""
    top = "Chain"
    modulus = rng.randint(*modulus_range)
    offset = rng.randrange(3)
    body = ["var laps = 0"]
    body += _block("clock", "Clock", ["period = 1", f"offset = {offset}"])
    for k in range(hops):
        body += _block("delay", f"Hop{k}", ["delay = 0"])
    count = ["input Sec", "output Lap", "var count = 0", "initial run"]
    count += _wrapping("run", "run", modulus, " output Lap = count")
    body += _block("fsm", "Count", count)
    body += _block("setvar", "SetLaps", ['target = "laps"'])
    body.append("connect Clock.output -> Hop0.input")
    body += [f"connect Hop{k - 1}.output -> Hop{k}.input" for k in range(1, hops)]
    body += [f"connect Hop{hops - 1}.output -> Count.Sec", "connect Count.Lap -> SetLaps.input"]
    return Family(f"chain{hops}", _document(top, body), {"hops": hops, "modulus": modulus, "offset": offset})


def _modal_level(level: int, depth: int, moduli) -> list:
    """Modal actor ``M<level>``: refinement ``a`` nests the next level, ``b`` idles."""
    ctrl = ["input Sec", "var count = 0", "initial a", "location b"]
    ctrl += _wrapping("a", "b", moduli[level]) + _wrapping("b", "a", moduli[level])
    inner_a = ["input Sec", "output Out"]
    if level + 1 < depth:
        child = f"M{level + 1}"
        inner_a += _modal_level(level + 1, depth, moduli)
    else:
        child = "Leaf"
        inner_a += _block("fsm", child, [
            "input Sec", "output Out", "initial on", "location off",
            "transition on -> off { guard isPresent(Sec) output Out = 1 }",
            "transition off -> on { guard isPresent(Sec) output Out = 0 }",
        ])
    inner_a += [f"connect parent.Sec -> {child}.Sec", f"connect {child}.Out -> parent.Out"]
    inner_b = ["input Sec", "output Out"]
    inner_b += _block("fsm", "Idle", [
        "input Sec", "output Out", "initial idle",
        f"transition idle -> idle {{ guard isPresent(Sec) output Out = {level + 2} }}",
    ])
    inner_b += ["connect parent.Sec -> Idle.Sec", "connect Idle.Out -> parent.Out"]
    body = ["input Sec", "output Out", "controller Ctrl", "refine a -> A", "refine b -> B"]
    body += _block("fsm", "Ctrl", ctrl)
    body += _block("composite", "A", inner_a)
    body += _block("composite", "B", inner_b)
    return _block("modal", f"M{level}", body)


def modal(rng, depth: int, modulus_range=(2, 4)) -> Family:
    """Modal actors nested ``depth`` deep below one clock."""
    top = "Nested"
    moduli = [rng.randint(*modulus_range) for _ in range(depth)]
    offset = rng.randrange(2)
    body = ["var out = 0"]
    body += _block("clock", "Clock", ["period = 1", f"offset = {offset}"])
    body += _modal_level(0, depth, moduli)
    body += _block("setvar", "SetOut", ['target = "out"'])
    body += ["connect Clock.output -> M0.Sec", "connect M0.Out -> SetOut.input"]
    return Family(f"modal{depth}", _document(top, body), {"depth": depth, "moduli": moduli, "offset": offset})
