"""Checks every request's output; the failures behind ``failed``.

A request fails when its exit code, verdict or oracle check is wrong, or
when it raised an unexpected exception.  An expected exit 3 (causality
cycle) is a success.  The checks:

* exit codes 0/1/3 as the request list expects them;
* the documented fixture facts: 25 and 63 states for the flat and the
  hierarchical crossing, and the mutant fails mutual exclusion;
* every verdict against the word semantics of ``tests/ltl_ref.py``
  (imported read-only), and against the verdict the formula has by
  construction of the generated model;
* every search hit against the first state the proposition holds in;
* the state graph's lasso against the ``simulate`` trace, state for
  state (time stamps included on the stem), for every model a request
  simulates or explores.

The oracle builds its own graphs and traces with tracing off, after the
measured passes, so none of its work is in the numbers.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

from de_fixpoint import build_state_graph, desugar, parse_formula, parse_prop, prop_holds, simulate
from de_fixpoint.formula import Atom, Eventually, collect_atoms

# The ports the fixture's header says the fixed point leaves unknown.
CAUSALITY_PORTS = {
    "causality_cycle": ("FeedbackLoop.A.In(in)", "FeedbackLoop.A.Out(out)", "FeedbackLoop.B.In(in)", "FeedbackLoop.B.Out(out)")
}
_STEP_LINE = re.compile(r"^t=(\S+) m=(\d+) (iteration|advance |microstep )")


def load_ltl_ref(root: Path):
    path = root / "tests" / "ltl_ref.py"
    spec = importlib.util.spec_from_file_location("ltl_ref", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_flat_table(root: Path) -> dict:
    """elapsed -> {variable: int}: the hand-derived rows for the flat crossing."""
    cell = r"\s*(\d+)\s*"
    row = re.compile(r"\|" + r"\|".join([cell] * 6) + r"\|")
    names = ("Cred", "Cyel", "Cgrn", "Pred", "Pgrn")
    table = {}
    for line in (root / "models" / "flat_traffic_light_oracle.md").read_text(encoding="utf-8").splitlines():
        match = row.fullmatch(line.strip())
        if match:
            elapsed, *values = map(int, match.groups())
            table[elapsed] = dict(zip(names, values))
    return table


class Oracle:
    def __init__(self, root: Path, fixture_states: dict, initial: dict, facts: dict):
        self.ltl_ref = load_ltl_ref(root)
        self.flat_table = load_flat_table(root)
        self.fixture_states = fixture_states
        self.initial = initial  # model key -> initial SystemState
        self.facts = facts  # generated model key -> what it has by construction
        self._graphs = {}

    def graph(self, model: str, bottom_as_absent: bool = False):
        """The model's unbounded lasso, checked against a simulation of it."""
        key = (model, bottom_as_absent)
        if key not in self._graphs:
            graph = build_state_graph(self.initial[model], bottom_as_absent=bottom_as_absent)
            self._check_lasso(model, graph)
            self._graphs[key] = graph
        return self._graphs[key]

    def _check_lasso(self, model, graph):
        """The graph's nodes are the simulate trace, and its closing edge the next step."""
        want = self.fixture_states.get(model)
        if want is not None and len(graph.nodes) != want:
            raise OracleFailure(f"{model}: {len(graph.nodes)} states, documented {want}")
        n = len(graph.nodes)
        if graph.succ[:-1] != list(range(1, n)):
            raise OracleFailure(f"{model}: graph is not a lasso")
        trace = simulate(graph.nodes[0], max_steps=n, bottom_as_absent=graph.bottom_as_absent)
        states = [trace.initial] + [ts.state for ts in trace.steps]
        for i, state in enumerate(states[:n]):
            node = graph.nodes[i]
            if state != node or (state.elapsed, state.microstep_of_instant) != (
                node.elapsed,
                node.microstep_of_instant,
            ):
                raise OracleFailure(f"{model}: graph stem differs from the trace at step {i}")
        if len(states) > n and states[n] != graph.nodes[graph.succ[-1]]:
            raise OracleFailure(f"{model}: the lasso closes on a state the trace does not reach")

    def lasso_state(self, graph, i: int):
        n = len(graph.nodes)
        if i < n:
            return graph.nodes[i]
        entry = graph.cycle_entry()
        return graph.nodes[entry + (i - entry) % (n - entry)]

    def verdict(self, graph, text: str) -> bool:
        formula = desugar(parse_formula(text))
        atoms = collect_atoms(formula)
        word = [{prop: prop_holds(s, prop) for prop in atoms} for s in graph.nodes]
        return self.ltl_ref.eval_word(word, graph.cycle_entry(), formula)

    # Per request. ---------------------------------------------------------

    def check(self, req, outcome) -> None:
        """Raise OracleFailure when the outcome is wrong."""
        if outcome.error is not None:
            raise OracleFailure(f"raised {outcome.error}")
        if req.kind == "cli":
            self._check_cli(req, outcome)
        elif req.kind == "graph":
            self._check_graph(req, outcome.result)
        elif req.kind == "check":
            self._check_verdict(req, outcome.result.holds, self.graph(req.model))
        elif req.kind == "search":
            self._check_search(req, outcome.result)
        else:
            raise OracleFailure(f"unknown request kind {req.kind!r}")

    def _expect(self, req, holds: bool) -> None:
        if req.expect_holds is not None and holds != req.expect_holds:
            raise BenchmarkInputError(
                f"{req.rid}: formula {req.text!r} was generated to "
                f"{'hold' if req.expect_holds else 'fail'}"
            )

    def _check_verdict(self, req, holds: bool, graph) -> None:
        want = self.verdict(graph, req.text)
        self._expect(req, want)
        if holds != want:
            raise OracleFailure(f"verdict {holds}, reference semantics say {want}")

    def _check_graph(self, req, graph) -> None:
        ref = self.graph(req.model)
        if len(graph.nodes) != len(ref.nodes) or graph.succ != ref.succ:
            raise OracleFailure("graph shape differs from the reference lasso")
        for a, b in zip(graph.nodes, ref.nodes):
            if a != b or a.elapsed != b.elapsed:
                raise OracleFailure("graph states differ from the reference lasso")

    def _check_search(self, req, result) -> None:
        hit, graph = result
        if req.until is not None:
            if not graph.bounded or any(s.elapsed > req.until for s in graph.nodes):
                raise OracleFailure("bounded graph passes its time bound")
        else:
            graph = self.graph(req.model)
        prop = desugar(Atom(parse_prop(req.text))).prop
        word = [{prop: prop_holds(s, prop)} for s in graph.nodes]
        found = self.ltl_ref.eval_word(word, graph.cycle_entry(), Eventually(Atom(prop)))
        first = next((i for i, v in enumerate(word) if v[prop]), None)
        if found != (first is not None):
            raise OracleFailure("reference semantics disagree with the valuation")
        got = None if hit is None else hit.node_id
        if got != first:
            raise OracleFailure(f"search hit {got}, first matching state {first}")

    def _check_cli(self, req, outcome) -> None:
        if outcome.exit_code != req.expect_exit:
            raise OracleFailure(f"exit {outcome.exit_code}, expected {req.expect_exit}")
        command = req.argv[0]
        if command == "simulate":
            self._check_simulate(req, outcome)
        elif command == "check":
            self._check_cli_check(req, outcome)
        else:
            raise OracleFailure(f"no oracle for {command!r}")

    def _check_simulate(self, req, outcome) -> None:
        if req.expect_exit == 3:
            named = all(port in outcome.stderr for port in CAUSALITY_PORTS.get(req.model, ()))
            if outcome.stdout or "never resolved" not in outcome.stderr or not named:
                raise OracleFailure("causality cycle not reported on stderr with its ports")
            return
        flag = "--bottom-as-absent" in req.argv
        trace = simulate(self.initial[req.model], time_bound=req.until, bottom_as_absent=flag)
        graph = self.graph(req.model, bottom_as_absent=flag)
        for i, ts in enumerate(trace.steps, start=1):
            if ts.state != self.lasso_state(graph, i):
                raise OracleFailure(f"trace leaves the lasso at step {i}")
        if req.argv[req.argv.index("--format") + 1] == "json":
            steps = json.loads(outcome.stdout)
            if len(steps) != len(trace.steps) or (
                steps and steps[-1]["microstep"] != trace.final.microstep_of_instant
            ):
                raise OracleFailure("JSON trace does not match the run")
            if req.model == "flat_traffic_light":
                self._check_flat_table(steps)
        else:
            lines = outcome.stdout.splitlines()
            steps = [_STEP_LINE.match(line) for line in lines]
            steps = [m for m in steps if m]
            if len(steps) != len(trace.steps):
                raise OracleFailure("text trace does not match the run")
            if not lines or not lines[-1].startswith(f"final: t={trace.final.elapsed} "):
                raise OracleFailure("text trace lacks its final state line")
            hops = self.facts.get(req.model, {}).get("hops")
            if hops is not None:
                self._check_microsteps(steps, hops)

    def _check_flat_table(self, steps) -> None:
        """The flat crossing's first eleven instants are the hand-derived table."""
        variables = dict.fromkeys(self.flat_table[0], 0)
        seen = {}
        for step in steps:
            variables.update(step["changedVariables"].get("FlatTrafficLight", {}))
            if step["kind"]["type"] == "iteration" and step["elapsed"] in self.flat_table:
                seen[step["elapsed"]] = dict(variables)
        if seen != self.flat_table:
            raise OracleFailure("flat crossing departs from its hand-derived trace")

    def _check_microsteps(self, steps, hops: int) -> None:
        """Each tick ripples down a chain of zero-delay hops one microstep per hop."""
        instants = {}
        for step in steps:
            if step.group(3) == "iteration":
                instants.setdefault(step.group(1), []).append(int(step.group(2)))
        if not instants or any(ms != list(range(hops + 1)) for ms in instants.values()):
            raise OracleFailure(f"a tick does not take exactly {hops} microsteps down the chain")

    def _check_cli_check(self, req, outcome) -> None:
        graph = self.graph(req.model)
        want = self.verdict(graph, req.text)
        self._expect(req, want)
        if outcome.exit_code != (0 if want else 1):
            raise OracleFailure(f"exit {outcome.exit_code}, reference verdict {want}")
        lines = outcome.stdout.splitlines()
        head = f"{'holds' if want else 'fails'} ({len(graph.nodes)} states explored)"
        if not lines or lines[0] != head:
            raise OracleFailure(f"first line {lines[:1]}, expected {head!r}")
        if not want and ("counterexample prefix:" not in lines or "repeating cycle:" not in lines):
            raise OracleFailure("failing check printed no counterexample")


class OracleFailure(Exception):
    """The program's output is wrong."""


class BenchmarkInputError(Exception):
    """A generated input does not have the property it was built to have."""
