"""Deterministic execution: step kinds, superdense time, bounds, traces."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from de_fixpoint import graph as graph_module
from de_fixpoint.errors import EmptyQueue
from de_fixpoint.executor import (
    Iteration,
    Microstep,
    Tick,
    simulate,
    step,
    trace_json,
    trace_step_text,
)
from de_fixpoint.parser import parse_model
from de_fixpoint.graph import build_state_graph
from de_fixpoint.postfire import initialize
from de_fixpoint.state import SystemState, collect_variables, fsm_locations
from de_fixpoint.values import IntVal

import families


def pipeline(delays):
    """Clock -> FSM -> chain of delays -> counter FSM, as model text."""
    stages = "\n".join(
        f"  delay D{i} {{ delay = {amount} }}" for i, amount in enumerate(delays)
    )
    hops = [
        f"  connect Src.Out -> D0.input" if delays else "  connect Src.Out -> Sink.In"
    ]
    for i in range(len(delays) - 1):
        hops.append(f"  connect D{i}.output -> D{i + 1}.input")
    if delays:
        hops.append(f"  connect D{len(delays) - 1}.output -> Sink.In")
    body = "\n".join(hops)
    return f"""format 1

composite Pipe {{
  clock Clock {{ period = 1 }}
  fsm Src {{
    input Tick
    output Out
    initial s
    transition s -> s {{ guard isPresent(Tick) output Out = 1 }}
  }}
  fsm Sink {{
    input In
    var hits = 0
    initial s
    transition s -> s {{ guard isPresent(In) set hits = hits + 1 }}
  }}
{stages}
  connect Clock.output -> Src.Tick
{body}
}}
"""


def run(delays, until):
    state = initialize(parse_model(pipeline(delays)))
    return simulate(state, time_bound=until)


def arrivals(trace):
    """[(elapsed, microstep)] of every iteration that bumped Sink.hits."""
    out = []
    for ts in trace.steps:
        delta = ts.changed_variables.get("Pipe.Sink", {})
        if "hits" in delta:
            out.append((ts.state.elapsed, ts.state.microstep_of_instant))
    return out


def test_zero_delay_lands_one_microstep_later_same_instant():
    trace = run([0], until=2)
    assert arrivals(trace) == [(0, 1), (1, 1), (2, 1)]


def test_chained_zero_delays_stack_microsteps():
    trace = run([0, 0], until=1)
    assert arrivals(trace) == [(0, 2), (1, 2)]


def test_positive_delay_lands_at_a_later_time():
    trace = run([Fraction(1, 2)], until=2)
    assert arrivals(trace) == [(Fraction(1, 2), 0), (Fraction(3, 2), 0)]


def test_mixed_chain_adds_time_then_microsteps():
    trace = run([1, 0], until=3)
    assert arrivals(trace) == [(1, 1), (2, 1), (3, 1)]


def test_step_kind_sequence_for_a_microstep_cascade():
    state = initialize(parse_model(pipeline([0])))
    kinds = []
    for _ in range(4):
        state, kind = step(state)
        kinds.append(kind)
    assert kinds == [Iteration(), Microstep(1), Iteration(), Tick(Fraction(1))]


def test_microsteps_reset_on_time_advance():
    trace = run([0], until=1)
    seen = [
        (ts.state.elapsed, ts.state.microstep_of_instant, type(ts.kind).__name__)
        for ts in trace.steps
    ]
    assert (Fraction(1), 0, "Tick") in seen
    after_tick = seen[seen.index((Fraction(1), 0, "Tick")) :]
    assert after_tick[1] == (Fraction(1), 0, "Iteration")


def test_time_bound_is_inclusive(flat_state):
    trace = simulate(flat_state, time_bound=3)
    assert trace.final.elapsed == 3
    ticks = [ts for ts in trace.steps if isinstance(ts.kind, Tick)]
    assert ticks[-1].state.elapsed == 3
    # The tick that would land at 4 is not taken, and the queue still
    # holds the future it would have consumed.
    assert not trace.truncated
    assert trace.final.queue_summary()


def test_fractional_time_bound_stops_between_ticks(flat_state):
    trace = simulate(flat_state, time_bound=Fraction(5, 2))
    assert trace.final.elapsed == 2


def test_step_budget_sets_truncated_flag(flat_state):
    trace = simulate(flat_state, time_bound=50, max_steps=7)
    assert trace.truncated
    assert len(trace.steps) == 7


def test_empty_queue_stops_the_run():
    text = """format 1

composite Lone {
  fsm Idle {
    input In
    initial s
  }
}
"""
    state = initialize(parse_model(text))
    trace = simulate(state, time_bound=10)
    assert trace.steps == []
    assert trace.final is state
    with pytest.raises(EmptyQueue):
        step(state)


def test_stepping_is_deterministic(flat_state):
    one = simulate(flat_state, time_bound=6)
    two = simulate(flat_state, time_bound=6)
    assert [ts.state for ts in one.steps] == [ts.state for ts in two.steps]
    assert trace_json(one) == trace_json(two)


def test_changed_variables_only_report_differences(flat_state):
    trace = simulate(flat_state, time_bound=2)
    for ts in trace.steps:
        if not isinstance(ts.kind, Iteration):
            assert ts.changed_variables == {}
    first_iter = next(ts for ts in trace.steps if isinstance(ts.kind, Iteration))
    top_delta = first_iter.changed_variables["FlatTrafficLight"]
    # Variables that stayed at their initial value are not echoed back.
    assert top_delta == {"Cred": IntVal(1), "Pred": IntVal(1)}


def test_trace_json_is_flat_and_serializable(flat_state):
    trace = simulate(flat_state, time_bound=2)
    payload = trace_json(trace)
    assert isinstance(payload, list) and len(payload) == len(trace.steps)
    encoded = json.dumps(payload, indent=2, sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded == payload
    for record in decoded:
        assert set(record) == {
            "elapsed",
            "microstep",
            "kind",
            "changedVariables",
            "fsmLocations",
            "queueSummary",
        }
    kinds = {record["kind"]["type"] for record in decoded}
    assert kinds <= {"tick", "microstep", "iteration"}


def test_trace_text_shows_tag_and_assignments(flat_state):
    trace = simulate(flat_state, time_bound=0)
    lines = [trace_step_text(ts) for ts in trace.steps]
    assert lines[0].startswith("t=0 m=0 iteration")
    assert any("FlatTrafficLight: Cred=1, Pred=1" in line for line in lines)


def test_variables_inside_frozen_refinements_stay_visible(hier_state):
    state = hier_state
    for _ in range(200):
        state, _ = step(state)
        if state.elapsed >= 16:
            break
    variables = collect_variables(state)
    frozen_car = variables["HierarchicalTrafficLight.TrafficLight.normal.CarLight"]
    assert frozen_car == {"count": IntVal(2)}
    assert "HierarchicalTrafficLight.TrafficLight.normal.CarLight" in fsm_locations(
        state
    )


def states_built_per_step(monkeypatch, state, time_bound=None):
    """{step kind name: Counter of how many states a step of that kind
    built} over a graph build from ``state``."""
    built = 0
    init = SystemState.__init__

    def counting_init(self, *slots):
        nonlocal built
        built += 1
        init(self, *slots)

    per_kind = {}
    real_step = graph_module.step

    def counting_step(state, **options):
        nonlocal built
        built = 0
        nxt, kind = real_step(state, **options)
        per_kind.setdefault(type(kind).__name__, Counter())[built] += 1
        return nxt, kind

    monkeypatch.setattr(SystemState, "__init__", counting_init)
    monkeypatch.setattr(graph_module, "step", counting_step)
    build_state_graph(state, time_bound)
    return per_kind


def test_an_iteration_builds_at_most_two_states(monkeypatch):
    # postfire builds the next state, with the due batch consumed, and
    # commit_requests builds a second only when something is scheduled; a
    # tick or a microstep requeues the state once.
    per_kind = states_built_per_step(monkeypatch, initialize(parse_model(families.crossings((3, 7), 6, 0))))
    assert set(per_kind) == {"Iteration", "Tick"}
    assert set(per_kind["Iteration"]) == {1, 2}
    assert set(per_kind["Tick"]) == {1}
    # The pipeline counts forever, so its graph is cut at a time bound.
    per_kind = states_built_per_step(monkeypatch, initialize(parse_model(pipeline([0, 0]))), 3)
    assert set(per_kind["Microstep"]) == {1}
    assert set(per_kind["Iteration"]) <= {1, 2}
