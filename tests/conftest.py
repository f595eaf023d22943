import os
import sys

import pytest
from hypothesis import settings

from de_fixpoint import build_state_graph, initialize, parse_model

# Property tests draw the same examples on every run (no example
# database, no random seed), so a failure reproduces and the suite's
# running time stays fixed.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=40
)
# The same, with more examples, for a longer run of chosen tests:
# ``pytest --hypothesis-profile thorough tests/test_plans.py``.  Tests
# that set their own example count keep it.
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=300)
settings.load_profile("deterministic")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = os.path.join(ROOT, "models")

# pyproject.toml puts src/ on this process's path; the CLI tests' child
# processes import the package from the same checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))
)


def model_path(name: str) -> str:
    return os.path.join(MODELS, name)


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def load_model(name: str):
    with open(model_path(name), encoding="utf-8") as handle:
        return parse_model(handle.read())


def initial_state(name: str):
    return initialize(load_model(name))


def many_untils(count: int) -> str:
    """``~`` of a balanced disjunction of ``count`` untils, for the hierarchical fixture.

    The tableau stays small (about 8 nodes per until), but a node can wait
    on any of the ``count`` fairness sets, so the negation's automaton has
    about ``count**2`` states: 90 602 for 300 untils.
    """

    def any_of(items):
        if len(items) == 1:
            return items[0]
        mid = len(items) // 2
        return f"({any_of(items[:mid])}) \\/ ({any_of(items[mid:])})"

    def var(name, i):
        return f"'HierarchicalTrafficLight | '{name} = {i}"

    untils = [f"({var('Cred', i)}) U ({var('Cyel', i)})" for i in range(count)]
    return f"~ ({any_of(untils)})"


def actors(state):
    """Yield (path, node of ``state.top``, live) for every actor, depth first.

    ``live`` is the state's mode's: the actor and all its ancestors are
    enabled, so frozen refinements and everything beneath them read false.
    """
    network = state.network
    nodes = network.nodes_of(state.top)
    for i in network.preorder:
        yield network.paths[i], nodes[i], state.mode.live[i]


@pytest.fixture(scope="session")
def flat_state():
    return initial_state("flat_traffic_light.model")


@pytest.fixture(scope="session")
def hier_state():
    return initial_state("hierarchical_traffic_light.model")


@pytest.fixture(scope="session")
def mutant_state():
    return initial_state("hierarchical_traffic_light_mutant.model")


@pytest.fixture
def cycle_state():
    return initial_state("causality_cycle.model")


@pytest.fixture(scope="session")
def hier_graph(hier_state):
    return build_state_graph(hier_state)


@pytest.fixture(scope="session")
def mutant_graph(mutant_state):
    return build_state_graph(mutant_state)


@pytest.fixture(scope="session")
def flat_graph(flat_state):
    return build_state_graph(flat_state)
