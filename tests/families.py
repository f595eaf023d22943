"""Model text for four synthetic families, and hypothesis strategies over them.

* crossings: pedestrian crossings, each on its own clock.  Car ``i``
  stays red ``red`` ticks and green ``cycle - 2 - red`` ticks; its
  pedestrian light walks and stops through half-unit delays.
* chain: a clock feeding ``hops`` zero-delay hops into a wrapping
  counter, so every hop costs one microstep.
* modal: modal actors nested ``depth`` deep, each switching refinements
  on its own counter, so refinements freeze and thaw.
* feedback: two machines in an instantaneous loop that settles.

Every parameter is explicit: the pinned digests in ``test_golden.py``
name them, and the strategies draw them.  The expression language has
no ``%``, so counters wrap with a pair of guarded transitions.
"""

from __future__ import annotations

from hypothesis import strategies as st


def _block(kind: str, name: str, body: list) -> list:
    return [f"{kind} {name} {{"] + [f"  {line}" for line in body] + ["}"]


def _document(top: str, body: list) -> str:
    return "\n".join(["format 1", ""] + _block("composite", top, body)) + "\n"


def _wrapping(source: str, target: str, modulus: int, extra: str = "") -> list:
    """Two transitions that count ticks of Sec and leave after ``modulus`` of them."""
    stay = f"transition {source} -> {source} {{ guard isPresent(Sec) && count < {modulus - 1} set count = count + 1 }}"
    leave = f"transition {source} -> {target} {{ guard isPresent(Sec) && count == {modulus - 1}{extra} set count = 0 }}"
    return [stay, leave]


def crossings(periods, cycle: int, shift: int) -> str:
    """Crossing ``i`` has a clock of period ``periods[i]`` first ticking at ``i + shift``."""
    body = []
    for i in range(len(periods)):
        body += [f"var C{i} = 0", f"var P{i} = 0"]
    red = (cycle - 2) // 2
    for i, period in enumerate(periods):
        body += _block("clock", f"Clock{i}", [f"period = {period}", f"offset = {i + shift}"])
        car = ["input Sec", "output Go", "output Lamp", "output Stop", "var count = 0", "initial red"]
        car += _wrapping("red", "ry", red, " output Stop = 1")
        car.append("transition ry -> green { guard isPresent(Sec) output Lamp = 1 }")
        car += _wrapping("green", "yellow", cycle - 2 - red, " output Lamp = 0")
        car.append("transition yellow -> red { guard isPresent(Sec) output Go = 1 }")
        body += _block("fsm", f"Car{i}", car)
        body += _block("fsm", f"Ped{i}", [
            "input Go", "input Stop", "output Walk", "initial stop",
            "transition stop -> walk { guard isPresent(Go) output Walk = 1 }",
            "transition walk -> stop { guard isPresent(Stop) output Walk = 0 }",
        ])
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
    return _document("Crossings", body)


def chain(hops: int, modulus: int, offset: int) -> str:
    """A clock feeding ``hops`` zero-delay hops into a counter wrapping at ``modulus``."""
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
    return _document("Chain", body)


def _modal_level(level: int, moduli) -> list:
    """Modal actor ``M<level>``: refinement ``A`` nests the next level, ``B`` idles."""
    ctrl = ["input Sec", "var count = 0", "initial a", "location b"]
    ctrl += _wrapping("a", "b", moduli[level]) + _wrapping("b", "a", moduli[level])
    inner_a = ["input Sec", "output Out"]
    if level + 1 < len(moduli):
        child = f"M{level + 1}"
        inner_a += _modal_level(level + 1, moduli)
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


def modal(moduli, offset: int) -> str:
    """Modal actors nested ``len(moduli)`` deep below one clock; level ``k`` wraps at ``moduli[k]``."""
    body = ["var out = 0"]
    body += _block("clock", "Clock", ["period = 1", f"offset = {offset}"])
    body += _modal_level(0, moduli)
    body += _block("setvar", "SetOut", ['target = "out"'])
    body += ["connect Clock.output -> M0.Sec", "connect M0.Out -> SetOut.input"]
    return _document("Nested", body)


def feedback(modulus: int, offset: int) -> str:
    """Two machines in an instantaneous loop that settles.

    A's guard reads only ``Tick``, so A decides as soon as the clock's
    status is known and sends its count to B within the instant; B
    answers on A's second input, ``In``, and a setter keeps the answer.
    The rule graph is the cycle A -> B -> A, which the fixed point must
    iterate.
    """
    body = ["var echo = 0"]
    body += _block("clock", "Clock", ["period = 1", f"offset = {offset}"])
    body += _block("fsm", "A", [
        "input Tick", "input In", "output Out", "var count = 0", "initial run",
        f"transition run -> run {{ guard isPresent(Tick) && count < {modulus - 1} output Out = count set count = count + 1 }}",
        f"transition run -> run {{ guard isPresent(Tick) && count == {modulus - 1} output Out = count set count = 0 }}",
    ])
    body += _block("fsm", "B", [
        "input In", "output Out", "initial idle",
        "transition idle -> idle { guard isPresent(In) output Out = value(In) + 1 }",
    ])
    body += _block("setvar", "SetEcho", ['target = "echo"'])
    body += [
        "connect Clock.output -> A.Tick",
        "connect A.Out -> B.In",
        "connect B.Out -> A.In, SetEcho.input",
    ]
    return _document("Feedback", body)


# Strategies: small members of each family, so a property runs in seconds.

CROSSINGS = st.builds(
    crossings,
    st.sampled_from([(2,), (2, 3), (3, 4), (2, 5)]),
    st.integers(4, 6),
    st.integers(0, 1),
)
CHAINS = st.builds(chain, st.integers(1, 5), st.integers(2, 4), st.integers(0, 2))
MODALS = st.builds(modal, st.lists(st.integers(2, 3), min_size=1, max_size=3), st.integers(0, 1))
MODELS = st.one_of(CROSSINGS, CHAINS, MODALS)
# Not among MODELS, so that what MODELS draws, and every pin on it, stays
# as it is.
FEEDBACK = st.builds(feedback, st.integers(2, 4), st.integers(0, 2))
