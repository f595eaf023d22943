"""The acceptance suite: ten end-to-end gates, one test per gate.

Each test states a user-visible claim about the package, checks it with
tolerances pinned to exact equality (the engine is deterministic and
its values are exact rationals; nothing here is approximate), and ends
by printing a single ``criterion N: PASS`` line.  Run with

    pytest tests/test_acceptance.py -v -s

to see those lines; under plain ``pytest`` they surface only on
failure.  Every gate also asserts its own wall-clock budget of ten
seconds, so a regression that makes a check crawl fails loudly instead
of quietly bloating CI.

The gates, in order:

 1. the hierarchical crossing never shows both greens (safety, plus an
    exhaustive per-node cross-check of the state graph);
 2. the same claim scoped to normal mode, written with hierarchical
    scoping and a modal-location test;
 3. cars and pedestrians each cross infinitely often (liveness);
 4. a sabotaged error mode is caught and the counterexample replays
    through the simulator state-for-state;
 5. the flat crossing reproduces a hand-derived 11-row trace exactly;
 6. zero delays cost a microstep, positive delays cost time;
 7. the port fixed point is confluent under 100 shuffled rule orders
    and never applies more rules than there are ports;
 8. instantaneous feedback is diagnosed with the exact cyclic ports,
    and --bottom-as-absent turns it into a completed run;
 9. a frozen refinement is bit-identical across every iteration of its
    frozen window;
10. the model checker agrees with an independent lasso-word evaluator
    on 22 formulas covering every operator, on every fixture.
"""

import io
import random
import re
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from de_fixpoint import (
    build_state_graph,
    check_ltl,
    parse_formula,
    parse_model,
    prop_holds,
    simulate,
    step,
)
from de_fixpoint.cli import main as cli_main
from de_fixpoint.executor import Iteration
from de_fixpoint.fire import compute_fixpoint
from de_fixpoint.formula import collect_atoms, desugar
from de_fixpoint.postfire import initialize
from de_fixpoint.state import collect_variables, fsm_locations
from de_fixpoint.values import IntVal

import ltl_ref
from conftest import initial_state, model_path
from fixpoint_ref import reference_fixpoint

BUDGET_SECONDS = 10.0


@contextmanager
def criterion(number: int, claim: str):
    started = time.perf_counter()
    yield
    took = time.perf_counter() - started
    assert took < BUDGET_SECONDS, f"criterion {number} took {took:.1f}s"
    print(f"criterion {number}: PASS ({took:.2f}s) — {claim}")


# The three published properties of the hierarchical crossing, spelled
# exactly as a user would type them.
MUTUAL_EXCLUSION = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"
BOTH_GREENS = "'HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1)"
NORMAL_MODE_SAFETY = """
'HierarchicalTrafficLight : (
  [] ('TrafficLight @ 'normal ->
     ~ ('TrafficLight . 'normal : ('CarLight @ 'Cgrn /\\ 'PedestrianLight @ 'Pgreen))))
"""
LIVENESS = """
   []<> ('HierarchicalTrafficLight | ('Pgrn = # 1, 'Cgrn = # 0))
/\\ []<> ('HierarchicalTrafficLight | ('Pgrn = # 0, 'Cgrn = # 1))
"""


def test_criterion_01_mutual_exclusion(hier_graph):
    with criterion(1, "car and pedestrian lights are never green together"):
        verdict = check_ltl(hier_graph, parse_formula(MUTUAL_EXCLUSION))
        assert verdict.holds and verdict.witness is None
        # The reachable graph is small and finite.
        assert not hier_graph.bounded
        assert len(hier_graph.nodes) < 10_000
        # Cross-check the verdict by brute force: no reachable state
        # satisfies the bad proposition.
        bad = desugar(parse_formula(BOTH_GREENS)).prop
        assert all(not prop_holds(s, bad) for s in hier_graph.nodes)
        # The optional '#' value marker spells the same formula.
        with_marker = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = # 1, 'Cgrn = # 1) )"
        assert parse_formula(with_marker) == parse_formula(MUTUAL_EXCLUSION)


def test_criterion_02_normal_mode_scoped_safety(hier_graph):
    with criterion(2, "in normal mode the two machines never both show green"):
        verdict = check_ltl(hier_graph, parse_formula(NORMAL_MODE_SAFETY))
        assert verdict.holds and verdict.witness is None


def test_criterion_03_liveness_both_cross(hier_graph):
    with criterion(3, "cars and pedestrians each cross infinitely often"):
        assert not hier_graph.bounded
        verdict = check_ltl(hier_graph, parse_formula(LIVENESS))
        assert verdict.holds and verdict.witness is None


def test_criterion_04_mutant_caught_and_witness_replays(mutant_graph):
    with criterion(4, "sabotaged error mode caught; counterexample replays exactly"):
        verdict = check_ltl(mutant_graph, parse_formula(MUTUAL_EXCLUSION))
        assert not verdict.holds
        witness = verdict.witness
        assert witness is not None
        # The witness must be the system's own run: starting at the
        # initial state and following the unique successor at each step.
        ids = witness.prefix_ids + witness.cycle_ids
        assert ids[0] == 0
        for here, there in zip(ids, ids[1:]):
            assert mutant_graph.succ[here] == there
        assert mutant_graph.succ[ids[-1]] == witness.cycle_ids[0]
        # The run visits every state freshly before it starts lapping.
        fresh = 0
        while fresh < len(ids) and ids[fresh] == fresh:
            fresh += 1
        assert sorted(set(ids)) == list(range(fresh))
        # Replay through the simulator.  Every distinct witness state is
        # reproduced exactly — actor tree, pending events, elapsed time,
        # microstep — at its first occurrence; positions past the wrap
        # revisit those states with time shifted by whole 20-second laps
        # (a reported lasso stores each state at its first-visit time).
        states = witness.prefix + witness.cycle
        trace = simulate(mutant_graph.nodes[0], max_steps=len(ids) - 1)
        replay = [trace.initial] + [ts.state for ts in trace.steps]
        assert len(replay) == len(states)
        for i, (got, want) in enumerate(zip(replay, states)):
            assert got == want  # actor tree and pending events
            if i < fresh:
                assert got.elapsed == want.elapsed
                assert got.microstep_of_instant == want.microstep_of_instant
            else:
                laps = got.elapsed - want.elapsed
                assert laps > 0 and laps % 20 == 0
                assert got.microstep_of_instant == want.microstep_of_instant
        # ... and the witness actually exhibits the violation.
        bad = desugar(parse_formula(BOTH_GREENS)).prop
        assert any(prop_holds(s, bad) for s in states)


def _oracle_rows():
    """The 11-row table out of models/flat_traffic_light_oracle.md."""
    cell = r"\s*(\d+)\s*"
    pattern = re.compile(r"\|" + r"\|".join([cell] * 6) + r"\|")
    rows = {}
    with open(model_path("flat_traffic_light_oracle.md"), encoding="utf-8") as fh:
        for line in fh:
            match = pattern.fullmatch(line.strip())
            if match:
                elapsed, cred, cyel, cgrn, pred, pgrn = map(int, match.groups())
                rows[elapsed] = {
                    "Cred": IntVal(cred),
                    "Cyel": IntVal(cyel),
                    "Cgrn": IntVal(cgrn),
                    "Pred": IntVal(pred),
                    "Pgrn": IntVal(pgrn),
                }
    return rows


def test_criterion_05_flat_trace_matches_hand_derived_table(flat_state):
    with criterion(5, "flat crossing reproduces the hand-derived trace, all 11 rows"):
        expected = _oracle_rows()
        assert sorted(expected) == list(range(11))
        trace = simulate(flat_state, time_bound=10)
        actual = {}
        for ts in trace.steps:
            if isinstance(ts.kind, Iteration):
                assert ts.state.microstep_of_instant == 0
                assert ts.state.elapsed not in actual
                lamps = collect_variables(ts.state)["FlatTrafficLight"]
                actual[int(ts.state.elapsed)] = lamps
        assert actual == expected


def _delay_pipeline(delays):
    """Clock -> emitter -> chain of delays -> counting sink, as model text."""
    stages = "\n".join(
        f"  delay D{i} {{ delay = {amount} }}" for i, amount in enumerate(delays)
    )
    hops = ["  connect Src.Out -> D0.input"]
    hops += [
        f"  connect D{i}.output -> D{i + 1}.input" for i in range(len(delays) - 1)
    ]
    hops.append(f"  connect D{len(delays) - 1}.output -> Sink.In")
    return (
        "format 1\n\n"
        "composite Pipe {\n"
        "  clock Clock { period = 1 }\n"
        "  fsm Src {\n"
        "    input Tick\n"
        "    output Out\n"
        "    initial s\n"
        "    transition s -> s { guard isPresent(Tick) output Out = 1 }\n"
        "  }\n"
        "  fsm Sink {\n"
        "    input In\n"
        "    var hits = 0\n"
        "    initial s\n"
        "    transition s -> s { guard isPresent(In) set hits = hits + 1 }\n"
        "  }\n"
        f"{stages}\n"
        "  connect Clock.output -> Src.Tick\n" + "\n".join(hops) + "\n}\n"
    )


def _arrival_tags(delays, until):
    state = initialize(parse_model(_delay_pipeline(delays)))
    trace = simulate(state, time_bound=until)
    return [
        (ts.state.elapsed, ts.state.microstep_of_instant)
        for ts in trace.steps
        if "hits" in ts.changed_variables.get("Pipe.Sink", {})
    ]


def test_criterion_06_zero_delays_cost_microsteps_not_time():
    with criterion(6, "delay 0 lands at microstep 1, chained at 2, delay 1 a tick later"):
        assert _arrival_tags([0], until=2) == [(0, 1), (1, 1), (2, 1)]
        assert _arrival_tags([0, 0], until=2) == [(0, 2), (1, 2), (2, 2)]
        assert _arrival_tags([1], until=3) == [(1, 0), (2, 0), (3, 0)]


def _fire_instants(name, *, max_elapsed):
    """[(state, its due events, live port count)] per whole instant."""
    state = initial_state(name)
    out = []
    while state.entries and state.elapsed <= max_elapsed:
        time, microstep, events = state.entries[0]
        if (time, microstep) == (0, 0):
            network = state.network
            live = sum(len(network.port_ids[i]) for i in network.preorder if state.mode.live[i])
            out.append((state, events, live))
        state, _ = step(state)
    return out


def _decisions(result):
    return sorted((i, entry.transition) for i, entry in result.decisions.items())


FIXTURES = [
    "flat_traffic_light.model",
    "hierarchical_traffic_light.model",
    "hierarchical_traffic_light_mutant.model",
]


def test_criterion_07_fixpoint_confluent_and_bounded():
    with criterion(7, "100 shuffled rule orders per fixture, identical snapshots"):
        for name in FIXTURES:
            instants = _fire_instants(name, max_elapsed=2)
            assert len(instants) >= 3
            for state, events, live in instants:
                baseline = compute_fixpoint(state, events)
                want = (baseline.statuses, _decisions(baseline))
                assert baseline.applications <= live
                for seed in range(100):
                    statuses, fired, applications, _ = reference_fixpoint(state, events, rng=random.Random(seed))
                    assert (statuses, sorted((i, e.transition) for i, e in fired.items())) == want
                    assert applications <= live


CYCLIC_PORTS = {
    "FeedbackLoop.A.In(in)",
    "FeedbackLoop.A.Out(out)",
    "FeedbackLoop.B.In(in)",
    "FeedbackLoop.B.Out(out)",
}


def test_criterion_08_causality_cycle_diagnosed_then_recovered(monkeypatch):
    with criterion(8, "feedback cycle exits 3 naming its 4 ports; absent-fallback runs"):
        monkeypatch.setenv("DE_FIXPOINT_COLOR", "0")
        cycle = model_path("causality_cycle.model")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["simulate", cycle, "--until", "2"])
        assert code == 3
        match = re.search(r"ports never resolved: (.+)", err.getvalue())
        assert match is not None
        assert {p.strip() for p in match.group(1).split(",")} == CYCLIC_PORTS
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["simulate", cycle, "--until", "2", "--bottom-as-absent"])
        assert code == 0
        assert "stopped: time bound 2 reached" in out.getvalue()


def test_criterion_09_frozen_refinement_bit_identical(hier_state):
    with criterion(9, "frozen refinement unchanged across every frozen iteration"):
        prefix = "HierarchicalTrafficLight.TrafficLight.normal."

        def snapshot(state):
            locations = {
                k: v for k, v in fsm_locations(state).items() if k.startswith(prefix)
            }
            variables = {
                k: v
                for k, v in collect_variables(state).items()
                if k.startswith(prefix)
            }
            return locations, variables

        def normal_enabled(state):
            return state.mode.enabled[state.network.actor(("HierarchicalTrafficLight", "TrafficLight", "normal"))]

        state = hier_state
        frozen_steps = 0
        froze_at = thawed_at = None
        while state.entries and state.elapsed < 24:
            before = state
            state, _ = step(state)
            if not normal_enabled(before):
                assert snapshot(state) == snapshot(before)
                frozen_steps += 1
            if normal_enabled(before) and not normal_enabled(state):
                froze_at = state.elapsed
                frozen = snapshot(state)[0]
                assert frozen[prefix + "CarLight"] == "Cred"
                assert frozen[prefix + "PedestrianLight"] == "Pgreen"
            if not normal_enabled(before) and normal_enabled(state):
                thawed_at = state.elapsed
        assert froze_at == 15 and thawed_at == 20
        assert frozen_steps >= 10  # five frozen iterations plus the ticks between


# One spelling of each proposition per fixture: a variable test and a
# location test, combined under every operator the formula language has.
ATOM_SPELLINGS = {
    "flat_traffic_light.model": (
        "('FlatTrafficLight | 'Cred = 1)",
        "('FlatTrafficLight . 'PedestrianLight @ 'Pgreen)",
    ),
    "hierarchical_traffic_light.model": (
        "('HierarchicalTrafficLight | 'Cred = 1)",
        "('HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    ),
    "hierarchical_traffic_light_mutant.model": (
        "('HierarchicalTrafficLight | 'Cred = 1)",
        "('HierarchicalTrafficLight . 'Decision @ 'Abnormal)",
    ),
    "causality_cycle.model": (
        "('FeedbackLoop . 'A @ 'S)",
        "('FeedbackLoop . 'B @ 'S)",
    ),
}

FORMULA_TEMPLATES = [
    "{p}",
    "~ {p}",
    "{p} /\\ {q}",
    "{p} \\/ {q}",
    "{p} -> {q}",
    "[] {p}",
    "<> {p}",
    "{p} U {q}",
    "[] <> {p}",
    "<> [] {p}",
    "[] ({p} -> <> {q})",
    "[] ({p} -> {q})",
    "~ [] {p}",
    "<> ({p} /\\ {q})",
    "({p} U {q}) \\/ [] {p}",
    "[] ({p} \\/ ~ {p})",
    "True U {q}",
    "{p} U ({q} U {p})",
    "~ ({p} U {q})",
    "[] True",
    "<> False",
    "{p} -> ({q} U {p})",
]


def test_criterion_10_checker_agrees_with_reference_semantics(
    flat_graph, hier_graph, mutant_graph
):
    with criterion(10, "22 formulas × 4 fixtures: verdicts match word semantics"):
        assert len(FORMULA_TEMPLATES) >= 20
        graphs = {
            "flat_traffic_light.model": flat_graph,
            "hierarchical_traffic_light.model": hier_graph,
            "hierarchical_traffic_light_mutant.model": mutant_graph,
            "causality_cycle.model": build_state_graph(
                initial_state("causality_cycle.model"), bottom_as_absent=True
            ),
        }
        checked = 0
        for name, graph in graphs.items():
            p, q = ATOM_SPELLINGS[name]
            for template in FORMULA_TEMPLATES:
                text = template.format(p=p, q=q)
                formula = desugar(parse_formula(text))
                atoms = collect_atoms(formula)
                word = [
                    {prop: prop_holds(s, prop) for prop in atoms} for s in graph.nodes
                ]
                expected = ltl_ref.eval_word(word, graph.cycle_entry(), formula)
                assert check_ltl(graph, parse_formula(text)).holds == expected, (
                    name,
                    text,
                )
                checked += 1
        assert checked == len(FORMULA_TEMPLATES) * len(graphs)
