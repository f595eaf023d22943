"""Reachable state graphs: lasso shape, identity rules, bounds, search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from de_fixpoint.errors import StateSpaceExceeded
from de_fixpoint.events import EMPTY_QUEUE, Event
from de_fixpoint.executor import Iteration, Tick, simulate, step
from de_fixpoint.graph import Stutter, build_state_graph, search
from de_fixpoint.model import PortRef
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.props import LocProp, VarProp
from de_fixpoint.state import SystemState, fsm_locations
from de_fixpoint.values import IntVal

import families
from conftest import initial_state
from test_golden import RATIONAL


def test_every_node_has_exactly_one_successor(hier_graph):
    n = len(hier_graph.nodes)
    assert len(hier_graph.succ) == n
    assert len(hier_graph.kinds) == n
    assert all(0 <= s < n for s in hier_graph.succ)
    # Only the last node may point backwards: the graph is a lasso.
    for i, s in enumerate(hier_graph.succ[:-1]):
        assert s == i + 1


def test_unbounded_graph_closes_a_cycle(hier_graph):
    entry = hier_graph.cycle_entry()
    assert 0 < entry < len(hier_graph.nodes)
    assert not isinstance(hier_graph.kinds[-1], Stutter)
    # Replaying the cycle edge from the last node reproduces the entry
    # state up to elapsed time, which identity deliberately ignores.
    nxt, _ = step(hier_graph.nodes[-1])
    assert nxt == hier_graph.nodes[entry]
    assert nxt.elapsed > hier_graph.nodes[entry].elapsed


def test_cycle_period_in_time(hier_graph):
    entry = hier_graph.cycle_entry()
    nxt, _ = step(hier_graph.nodes[-1])
    period = nxt.elapsed - hier_graph.nodes[entry].elapsed
    assert period == 20


def test_identity_ignores_elapsed_only_when_unbounded(flat_state):
    unbounded = build_state_graph(flat_state)
    assert not unbounded.bounded
    bounded = build_state_graph(flat_state, time_bound=20)
    assert bounded.bounded
    # Bounded identity includes the timestamp: states that coincide
    # structurally at different times stay distinct nodes.
    entry = unbounded.cycle_entry()
    cyclic = unbounded.nodes[entry]
    matches = [s for s in bounded.nodes if s == cyclic]
    assert len(matches) >= 2
    assert len({(s.elapsed, s.microstep_of_instant) for s in matches}) == len(matches)


def test_bounded_graph_ends_in_stutter(flat_state):
    graph = build_state_graph(flat_state, time_bound=5)
    assert isinstance(graph.kinds[-1], Stutter)
    assert graph.succ[-1] == len(graph.nodes) - 1
    assert graph.cycle_entry() == len(graph.nodes) - 1
    final = graph.nodes[-1]
    assert final.elapsed == 5
    assert not final.queue.is_empty()  # the future was cut, not consumed


def test_bound_is_inclusive(flat_state):
    graph = build_state_graph(flat_state, time_bound=3)
    times = {s.elapsed for s in graph.nodes}
    assert Fraction(3) in times
    assert all(t <= 3 for t in times)


def test_max_states_guard(flat_state):
    with pytest.raises(StateSpaceExceeded):
        build_state_graph(flat_state, max_states=5)


def test_kinds_record_the_step_taken(flat_graph):
    kinds = flat_graph.kinds
    assert any(isinstance(k, Tick) for k in kinds)
    assert any(isinstance(k, Iteration) for k in kinds)
    ticks = [k.dt for k in kinds if isinstance(k, Tick)]
    assert set(ticks) == {Fraction(1)}


def test_search_returns_first_hit_in_time_order(hier_graph):
    hit = search(
        hier_graph,
        LocProp(
            ("HierarchicalTrafficLight", "TrafficLight", "error", "ErrorLight"),
            "Eon",
        ),
    )
    assert hit is not None
    assert hit.state.elapsed == 16
    locations = fsm_locations(hit.state)
    assert locations["HierarchicalTrafficLight.TrafficLight.error.ErrorLight"] == "Eon"
    earlier = hier_graph.nodes[: hit.node_id]
    assert all(
        fsm_locations(s)["HierarchicalTrafficLight.TrafficLight.error.ErrorLight"]
        != "Eon"
        for s in earlier
    )


def test_search_misses_return_none(hier_graph):
    assert (
        search(
            hier_graph,
            VarProp(("HierarchicalTrafficLight",), (("Cred", IntVal(77)),)),
        )
        is None
    )


def test_frozen_window_keeps_queue_clear_of_stale_events(hier_graph):
    # While the error refinement is live, nothing may still be in flight
    # for the frozen one; otherwise reactivation would replay stale traffic.
    for state in hier_graph.nodes:
        locations = fsm_locations(state)
        if locations["HierarchicalTrafficLight.TrafficLight.Ctrl"] == "error":
            for entry in state.queue.entries:
                for event in entry.events:
                    assert "normal" not in event.target.actor


@pytest.mark.parametrize("model", ["hier", "rational"])
def test_a_state_and_its_tree_and_queue_describe_each_other(model, hier_state):
    initial = hier_state if model == "hier" else initialize(parse_model(RATIONAL))
    graph = build_state_graph(initial)
    for state in graph.nodes:
        again = SystemState(state.top, state.queue, state.elapsed, state.microstep_of_instant)
        assert again == state and hash(again) == hash(state)
        assert (again.now, again.microstep_of_instant) == (state.now, state.microstep_of_instant)
        assert state.queue_summary() == state.queue.summary()


def test_a_state_takes_only_times_on_its_timebase(flat_state):
    clock = PortRef(("FlatTrafficLight", "Clock"), "output")
    off = EMPTY_QUEUE.add(Fraction(1, 3), 0, Event(clock, IntVal(1)))
    with pytest.raises(ValueError):
        SystemState(flat_state.top, off)
    with pytest.raises(ValueError):
        SystemState(flat_state.top, EMPTY_QUEUE, Fraction(5, 2))


@settings(max_examples=15)
@given(families.MODELS)
def test_simulate_trace_is_the_graph_up_to_the_lasso(text):
    # A run is the lasso's chain: the trace's states are the graph's nodes
    # in order, at the same times, with the same step kinds, and the step
    # after the last node lands on the cycle's entry.  Every generated
    # model runs forever, so the lasso closes on a real step.
    initial = initialize(parse_model(text))
    graph = build_state_graph(initial)
    n = len(graph.nodes)
    trace = simulate(initial, max_steps=n)
    assert len(trace.steps) == n
    states = [initial] + [ts.state for ts in trace.steps]
    assert states[:n] == graph.nodes
    assert [(s.now, s.microstep_of_instant) for s in states[:n]] == [
        (s.now, s.microstep_of_instant) for s in graph.nodes
    ]
    assert [ts.kind for ts in trace.steps] == graph.kinds
    assert states[n] == graph.nodes[graph.cycle_entry()]

