"""The run loop: one queue tag at a time.

A step looks at the head of the event queue and does exactly one of
three things.  If events are due right now (head at time 0, microstep 0)
it runs a full iteration: the fixed point clears the ports, delivers
the due events and resolves the rest, then postfire commits.  If
the head is at the current timestamp but a later microstep, it advances
the microstep counter.  Otherwise it lets time pass up to the head.
Every step is deterministic, so a run is fully determined by the initial
state.

A step reads and writes the state's flat slots and counts time in ticks
of the model's timebase (see state.py and network.py).  Exact rationals
appear only where a time is shown: a Tick's ``dt``, trace output, and
the time bound, which ``simulate`` converts to ticks once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import floor

from .errors import EmptyQueue
from .events import advance_microstep, advance_time

from .fire import compute_fixpoint
from .postfire import commit_requests, postfire
from .state import SystemState, collect_variables, fsm_locations
from .util import rational_json, ticks_text
from .values import BoolVal, IntVal, StringVal, TimeVal, literal_text

# Bound here only for bench/spans.py, which wraps them by these names,
# until the bench reads counters instead (ROADMAP item 1, stage C): step
# fuses both stages into compute_fixpoint and calls neither.
from .fire import clear_ports, deliver_events  # noqa: F401

DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class Tick:
    dt: Fraction

    def json(self):
        return {"type": "tick", "dt": rational_json(self.dt)}


@dataclass(frozen=True)
class Microstep:
    n: int

    def json(self):
        return {"type": "microstep", "n": self.n}


@dataclass(frozen=True)
class Iteration:
    def json(self):
        return {"type": "iteration"}


_ITERATION = Iteration()


def _tick(network, dt: int) -> Tick:
    """The Tick for ``dt`` ticks; one per distinct size and network."""
    tick = network.tick_kinds.get(dt)
    if tick is None:
        tick = network.tick_kinds[dt] = Tick(Fraction(dt, network.timebase))
    return tick


def step(state: SystemState, bottom_as_absent: bool = False):
    """Process the head of the queue.  Returns (next state, step kind)."""
    entries = state.entries
    if not entries:
        raise EmptyQueue("nothing left to do")
    time, microstep, events = entries[0]
    if time > 0:
        return state.requeued(advance_time(entries, time), state.now + time, 0), _tick(state.network, time)
    if microstep > 0:
        nxt = state.requeued(
            advance_microstep(entries, microstep), state.now, state.microstep_of_instant + microstep
        )
        return nxt, Microstep(microstep)
    # Clear, deliver and resolve in one pass over a flat status table; the
    # commit builds the next state once, with the due batch consumed.
    result = compute_fixpoint(state, events, bottom_as_absent)
    nxt, requests = postfire(state, result.statuses, result.decisions)
    return commit_requests(nxt, requests), _ITERATION


def ticks_within(state: SystemState, time_bound) -> int:
    """The last tick of ``state``'s timebase at or before ``time_bound``."""
    return floor(Fraction(time_bound) * state.network.timebase)


def passes_bound(state: SystemState, bound) -> bool:
    """The next step lets time pass ``bound`` (in ticks; None for no bound)."""
    if bound is None or not state.entries:
        return False
    time = state.entries[0][0]
    return time > 0 and state.now + time > bound


@dataclass
class TraceStep:
    kind: object  # Tick | Microstep | Iteration
    state: SystemState
    changed_variables: dict  # dotted path -> {variable: value}


@dataclass
class Trace:
    initial: SystemState
    steps: list
    truncated: bool = False

    @property
    def final(self) -> SystemState:
        return self.steps[-1].state if self.steps else self.initial


def _diff_variables(old: dict, new: dict) -> dict:
    changed = {}
    for path, variables in new.items():
        before = old.get(path, {})
        delta = {v: val for v, val in variables.items() if before.get(v) != val}
        if delta:
            changed[path] = delta
    return changed


def simulate(
    state: SystemState,
    time_bound=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    bottom_as_absent: bool = False,
) -> Trace:
    """Run until the queue drains, the time bound, or the step budget.

    The time bound is inclusive: a tick landing exactly on the bound is
    taken, one that would pass it is not (the run stops just before).
    """
    bound = None if time_bound is None else ticks_within(state, time_bound)
    initial = state
    steps = []
    truncated = False
    # Only iterations change variables, so the table is refreshed after
    # each one that changed a value.
    variables = collect_variables(state)
    while True:
        if not state.entries:
            break
        if len(steps) >= max_steps:
            truncated = True
            break
        if passes_bound(state, bound):
            break
        before = state.values
        state, kind = step(state, bottom_as_absent=bottom_as_absent)
        changed = {}
        if state.values is not before:
            prev, variables = variables, collect_variables(state)
            changed = _diff_variables(prev, variables)
        steps.append(TraceStep(kind, state, changed))
    return Trace(initial, steps, truncated)


# Trace rendering (shared by the command-line front end and tests). ----------


def value_json(v):
    if isinstance(v, BoolVal):
        return v.value
    if isinstance(v, IntVal):
        return v.value
    if isinstance(v, StringVal):
        return v.value
    if isinstance(v, TimeVal):
        return {"time": rational_json(v.value)}
    raise TypeError(f"not a value: {v!r}")


def trace_step_json(ts: TraceStep) -> dict:
    state = ts.state
    return {
        "elapsed": rational_json(state.elapsed),
        "microstep": state.microstep_of_instant,
        "kind": ts.kind.json(),
        "changedVariables": {
            path: {var: value_json(val) for var, val in delta.items()}
            for path, delta in sorted(ts.changed_variables.items())
        },
        "fsmLocations": dict(sorted(fsm_locations(state).items())),
        "queueSummary": [
            [rational_json(t), n, count] for t, n, count in state.queue_summary()
        ],
    }


def trace_json(trace: Trace) -> list:
    return [trace_step_json(ts) for ts in trace.steps]


# ``json.dumps`` with ``indent`` set runs CPython's pure-Python encoder, so
# the CLI writes a trace's JSON text itself: it knows the schema, and
# joins leaves between fixed indentation strings.  A string leaf goes
# through the C encoder ``json.dumps`` uses, a number through ``str``.

_string = encode_basestring_ascii


def _leaf(value) -> str:
    """A JSON string, boolean or integer, as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return _string(value)
    return ("false", "true")[value] if isinstance(value, bool) else str(value)


def _time_text(ticks: int, base: int) -> str:
    """``_leaf(rational_json(Fraction(ticks, base)))``, without the Fraction."""
    text = ticks_text(ticks, base)
    return f'"{text}"' if "/" in text else text


def _object_text(entries, pad: str) -> str:
    """A JSON object of ``(key, value text)`` entries, in order; it closes at ``pad``."""
    if not entries:
        return "{}"
    sep = f",\n{pad}  "
    return f"{{{sep[1:]}{sep.join(f'{_string(k)}: {v}' for k, v in entries)}\n{pad}}}"


def _value_text(v) -> str:
    """``value_json(v)`` as a changed variable's JSON text."""
    value = value_json(v)
    return _object_text([("time", _leaf(value["time"]))], " " * 8) if isinstance(value, dict) else _leaf(value)


def trace_json_text(trace: Trace) -> str:
    """``json.dumps(trace_json(trace), indent=2, sort_keys=True)``, written from the steps.

    A step's ``fsmLocations`` object is written once per distinct
    locations tuple in the trace.
    """
    located = {}  # locations tuple -> its fsmLocations text
    records = []
    for ts in trace.steps:
        state = ts.state
        network, locations = state.network, state.locations
        fsm = located.get(locations)
        if fsm is None:
            fsm = located[locations] = _object_text(
                [(path, _string(locations[i])) for i, path in network.sorted_fsm_paths if locations[i] is not None],
                "    ",
            )
        changed = [
            (path, _object_text([(var, _value_text(v)) for var, v in sorted(delta.items())], "      "))
            for path, delta in sorted(ts.changed_variables.items())
        ]
        kind = [(key, _leaf(value)) for key, value in sorted(ts.kind.json().items())]
        base = network.timebase
        queue = ",\n      ".join(
            f"[\n        {_time_text(t, base)},\n        {m},\n        {len(events)}\n      ]"
            for t, m, events in state.entries
        )
        queue = f"[\n      {queue}\n    ]" if queue else "[]"
        records.append(
            f'  {{\n    "changedVariables": {_object_text(changed, "    ")},\n'
            f'    "elapsed": {_time_text(state.now, base)},\n    "fsmLocations": {fsm},\n'
            f'    "kind": {_object_text(kind, "    ")},\n    "microstep": {state.microstep_of_instant},\n'
            f'    "queueSummary": {queue}\n  }}'
        )
    return "[\n" + ",\n".join(records) + "\n]" if records else "[]"


def trace_step_text(ts: TraceStep) -> str:
    state = ts.state
    kind = ts.kind
    if isinstance(kind, Tick):
        head = f"advance {kind.dt}"
    elif isinstance(kind, Microstep):
        head = f"microstep +{kind.n}"
    else:
        head = "iteration"
    parts = [f"t={ticks_text(state.now, state.network.timebase)} m={state.microstep_of_instant} {head}"]
    for path, delta in sorted(ts.changed_variables.items()):
        assigns = ", ".join(f"{k}={literal_text(v)}" for k, v in sorted(delta.items()))
        parts.append(f"    {path}: {assigns}")
    return "\n".join(parts)
