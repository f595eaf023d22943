"""The two workloads: seeded inputs and their fixed request lists.

A workload is a set of models (fixtures read from ``models/`` plus
generated ones) and a request list that one client sends in a closed
loop, one request at a time.  A request is one in-process CLI call, or
one ``build_state_graph`` / ``check_ltl`` / ``search`` library call.

* simulate_trace: ``simulate`` CLI calls on every fixture and on chain
  and modal models.  The executor does nearly all the work; the state
  graph, state hashing and the checker do none, so it is the control
  for changes to those layers.
* model_check: both kinds of verdict.  First the library path: one
  ~1000-state lasso from three coprime crossings, 28 holding formulas,
  many with large tableaux, and 15 searches, one bounded by a time
  horizon; Büchi construction, nested DFS, direct lasso evaluation
  and propositions dominate, and nothing fails, so nothing is replayed.
  Then ``check`` CLI calls with failing formulas on the mutant fixture
  and on ~150-state crossings: witness replay re-executes about twice
  the graph build's steps and compares states by equality rather than
  by hash.  A gain for holding verdicts that costs failing ones shows
  in the same numbers.

Holding and failing verdicts share one workload because, on a shared
host, the speed of a run drifts by tens of percent over minutes and the
spread between runs falls only as runs get longer: the benchmark's time
budget allows 50-second runs for two workloads, 35-second ones for
three.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import models as families

FIXTURES = (
    "flat_traffic_light",
    "hierarchical_traffic_light",
    "hierarchical_traffic_light_mutant",
    "causality_cycle",
)

# Documented facts about the fixtures (README, acceptance suite).
FIXTURE_STATES = {"flat_traffic_light": 25, "hierarchical_traffic_light": 63}
MUTUAL_EXCLUSION = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"


@dataclass
class Request:
    rid: str
    kind: str  # "cli", "graph", "check" or "search"
    model: str  # model key
    argv: list = field(default_factory=list)  # cli only
    text: str = ""  # formula or proposition
    until: Fraction = None  # bounded graph for a search
    expect_exit: int = 0  # cli only
    expect_holds: bool = None  # verdict the formula has by construction


@dataclass
class Workload:
    models: dict  # model key -> canonical model text (generated ones checked)
    facts: dict  # model key -> generator facts
    requests: list
    min_passes: int  # a run sends the request list at least this often

    @property
    def tail_percentile(self) -> int:
        """The highest percentile with at least ten samples above it in min_passes passes.

        Fixed by the request list, not by how many passes a run manages, so
        a faster commit reports the same percentile.
        """
        n = len(self.requests) * self.min_passes
        for p in (99, 95, 90, 80, 75, 50):
            if n * (100 - p) >= 10 * 100:
                return p
        raise ValueError("request list too short for a tail percentile")


def _crossing_atoms(i: int) -> dict:
    return {
        "i": i,
        "green": f"('Crossings . 'Car{i} @ 'green)",
        "red": f"('Crossings . 'Car{i} @ 'red)",
        "ry": f"('Crossings . 'Car{i} @ 'ry)",
        "yellow": f"('Crossings . 'Car{i} @ 'yellow)",
        "walk": f"('Crossings . 'Ped{i} @ 'walk)",
        "stop": f"('Crossings . 'Ped{i} @ 'stop)",
        "lamp": f"('Crossings | 'C{i} = 1)",
        "walking": f"('Crossings | 'P{i} = 1)",
    }


# Hold on every crossings model by construction (see models.crossings).
HOLDING = [
    "[] ~ ({a[green]} /\\ {a[walk]})",
    "[] ~ ({a[lamp]} /\\ {a[walking]})",
    "[] ({a[green]} -> <> {a[red]})",
    "[] ({a[walk]} -> <> {a[stop]})",
    "[]<> {a[green]} /\\ []<> {b[green]} /\\ []<> {c[green]}",
    "[]<> {a[walk]} /\\ []<> ~ {a[walk]} /\\ []<> {b[walk]}",
    "[] ({a[red]} -> ({a[red]} U {a[ry]}))",
    "[] ({b[ry]} -> ({b[ry]} U {b[green]}))",
    "[] ({a[green]} -> ({a[green]} U ({a[yellow]} U {a[red]})))",
    "[] (({a[lamp]} -> {a[green]}) /\\ ({a[green]} -> {a[lamp]}))",
    "[] (({b[walking]} -> {b[walk]}) /\\ ({b[walk]} -> {b[walking]}))",
    "[] <> ({a[green]} \\/ {b[green]})",
    "([]<> {a[green]} /\\ []<> {b[green]}) -> []<> {c[walk]}",
    "[] ({c[green]} -> (~ {c[walk]} U {c[red]}))",
    "~ <> ({b[green]} /\\ {b[walk]})",
    "[] ({c[red]} \\/ {c[ry]} \\/ {c[green]} \\/ {c[yellow]})",
    "<> [] <> {c[green]}",
    "[] ({c[stop]} -> <> {c[walk]})",
    "[] ({a[ry]} -> ({a[ry]} U ({a[green]} U ({a[yellow]} U {a[red]}))))",
    "[]<> {a[lamp]} /\\ []<> {b[lamp]} /\\ []<> {c[lamp]} /\\ []<> {a[walking]}",
]

# Fail on every crossings model by construction.
FAILING = [
    "[] ~ {a[green]}",
    "<> [] {b[red]}",
    "[] ({a[green]} -> ({a[green]} U {a[walk]}))",
    "[] ~ {b[lamp]}",
]


def _searches(a, b, c):
    """(proposition, bounded horizon or None)."""
    firsts = [(x[name][1:-1], None) for x in (a, b, c) for name in ("green", "walk", "lamp", "walking")]
    return firsts + [
        (f"'Crossings | ('C{a['i']} = 1, 'P{b['i']} = 1)", None),
        (f"'Crossings | ('C0 = 1, 'C1 = 1, 'C2 = 1)", None),
        (c["ry"][1:-1], Fraction(60)),
    ]


def _atoms(count: int):
    """Atoms of crossings 0, 1, ...: which crossing a formula names is fixed,
    since its clock period sets the formula's cost."""
    return [_crossing_atoms(i) for i in range(count)]


def _add(out_models, out_facts, family, key=None):
    key = key or family.name
    out_models[key] = family.text
    out_facts[key] = family.facts
    return key


def simulate_trace(rng, fixtures: dict) -> Workload:
    models = dict(fixtures)
    facts = {}
    plan = [
        ("flat_traffic_light", 30, "text", []),
        ("flat_traffic_light", 30, "json", []),
        ("hierarchical_traffic_light", 25, "text", []),
        ("hierarchical_traffic_light", 25, "json", []),
        ("hierarchical_traffic_light_mutant", 25, "text", []),
        ("causality_cycle", 10, "text", []),
        ("causality_cycle", 10, "text", ["--bottom-as-absent"]),
    ]
    # The seed deals the chain lengths out in its own order and picks the
    # counters and offsets; each run ends a fixed time after its first
    # tick.  So the set of request costs, and with it every latency
    # percentile, stays the same from seed to seed.
    hops = [6, 7, 8, 9]
    rng.shuffle(hops)
    for n, k in enumerate(hops):
        key = _add(models, facts, families.chain(rng, k), f"chain-{'abcd'[n]}")
        plan.append((key, facts[key]["offset"] + 12, "text", []))
    for n in range(2):
        key = _add(models, facts, families.modal(rng, 3), f"modal-{'ab'[n]}")
        plan.append((key, facts[key]["offset"] + 25, "json", []))
    requests = []
    for model, until, fmt, extra in plan:
        argv = ["simulate", model, "--until", str(until), "--format", fmt] + extra
        rid = f"simulate:{model}:{until}:{fmt}" + "".join(extra)
        expect = 3 if model == "causality_cycle" and not extra else 0
        requests.append(Request(rid, "cli", model, argv=argv, until=Fraction(until), expect_exit=expect))
    return Workload(models, facts, requests, min_passes=10)


def _holding(rng, models: dict, facts: dict) -> list:
    """Library requests on one ~1000-state lasso: a graph, holding formulas, searches."""
    key = _add(models, facts, families.crossings(rng, (3, 5, 7), 6))
    a, b, c = _atoms(3)
    requests = [Request(f"graph:{key}", "graph", key)]
    # The first four invariants, which name one crossing, also on the other
    # two, and the first-hit searches on every crossing: with them the
    # median request is a holding check in the thick of the others, not
    # one at the edge between the cheap requests and the CLI checks.
    texts = [template.format(a=a, b=b, c=c) for template in HOLDING]
    texts += [template.format(a=other) for other in (b, c) for template in HOLDING[:4]]
    for n, text in enumerate(texts):
        requests.append(Request(f"check:{key}:{n}", "check", key, text=text, expect_holds=True))
    for n, (prop, until) in enumerate(_searches(a, b, c)):
        requests.append(Request(f"search:{key}:{n}", "search", key, text=prop, until=until))
    return requests


def _failing(rng, fixtures: dict, models: dict, facts: dict) -> list:
    """``check`` CLI requests with failing formulas on the mutant and ~150-state crossings."""
    mutant = "hierarchical_traffic_light_mutant"
    models[mutant] = fixtures[mutant]
    error_mode = "[] ~ ('HierarchicalTrafficLight . 'TrafficLight @ 'error)"
    requests = []
    for n, text in enumerate((MUTUAL_EXCLUSION, error_mode)):
        argv = ["check", mutant, "--formula", text]
        requests.append(Request(f"check:{mutant}:{n}", "cli", mutant, argv=argv, text=text, expect_exit=1, expect_holds=False))
    for periods, cycle in (((3, 7), 6), ((5, 7), 4)):
        key = _add(models, facts, families.crossings(rng, periods, cycle))
        a, b = _atoms(len(periods))
        for n, template in enumerate(FAILING):
            text = template.format(a=a, b=b)
            argv = ["check", key, "--formula", text]
            requests.append(Request(f"check:{key}:{n}", "cli", key, argv=argv, text=text, expect_exit=1, expect_holds=False))
    return requests


def model_check(rng, fixtures: dict) -> Workload:
    models = {}
    facts = {}
    requests = _holding(rng, models, facts) + _failing(rng, fixtures, models, facts)
    return Workload(models, facts, requests, min_passes=5)


WORKLOADS = {
    "simulate_trace": simulate_trace,
    "model_check": model_check,
}


def make(name: str, seed: int, fixtures: dict) -> Workload:
    """The workload's models and requests; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), fixtures)
