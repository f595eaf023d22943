import os
import signal
import sys

import pytest
from hypothesis import settings

from de_fixpoint import build_state_graph, initialize, parse_model
from de_fixpoint.errors import NoSuchActor
from de_fixpoint.events import EMPTY_QUEUE, schedule
from de_fixpoint.executor import step
from de_fixpoint.model import OUT, path_text
from de_fixpoint.network import to_ticks
from de_fixpoint.state import SystemState
from de_fixpoint.values import Present

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

# Every test's call fails after this many seconds of wall-clock time, so
# that a test which runs on fails and the suite goes on.  The slowest
# test takes about 2 s.
TEST_LIMIT_S = 60


def _over_the_limit(signum, frame):
    pytest.fail(f"test ran past its {TEST_LIMIT_S} s limit", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _over_the_limit)
    signal.alarm(TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = os.path.join(ROOT, "models")

# pyproject.toml puts src/ on this process's path; the CLI tests' child
# processes import the package from the same checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))
)


def step_until(state, done, budget=1000):
    """The first state of the run from ``state`` (itself included) for
    which ``done`` holds; the test fails if ``budget`` steps find none."""
    for _ in range(budget):
        if done(state):
            return state
        state, _ = step(state)
    pytest.fail(f"no state within {budget} steps met the condition")


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


def resolve(top, path):
    """The node of tree ``top`` at an absolute actor path (starting with the
    top actor's name); an unknown path raises NoSuchActor naming its first
    missing prefix, as ``Network.actor`` does."""
    path = tuple(path)
    if not path or path[0] != top.name:
        raise NoSuchActor(path_text(path) if path else "<empty path>")
    node = top
    for i, name in enumerate(path[1:], start=2):
        node = node.child(name)
        if node is None:
            raise NoSuchActor(path_text(path[:i]))
    return node


def flat_events(network, events) -> tuple:
    """Events as the engine queues them: (port id, Present(value)) pairs
    sorted by port id, the later of two events for one port kept.  Every
    event targets an output port, where it lands."""
    out = {}
    for event in events:
        out[network.ids[(event.target.actor, event.target.port, OUT)]] = Present(event.value)
    return tuple(sorted(out.items()))


def started(top, locations=None, queue=EMPTY_QUEUE, elapsed=0, microstep=0):
    """A state of a run of tree ``top``: its machines at ``locations`` (by
    dotted path, as ``fsm_locations`` gives them; the rest stand in their
    initial ones), ``queue`` pending, at time ``elapsed`` and microstep
    ``microstep``, every variable at its starting value and every port
    unknown.

    It is built as the engine builds states, from ``initialize(top)``'s
    network and slots, with the queue read event by event through
    ``events.schedule``, as ``EventQueue.add`` would have built it.  The
    clocks' first ticks are pending only if ``queue`` holds them.
    """
    first = initialize(top)
    network = first.network
    slots = list(first.locations)
    for path, location in (locations or {}).items():
        slots[network.actor(path.split("."))] = location
    slots = tuple(slots)
    entries = ()
    for entry in queue.entries:
        time = to_ticks(entry.time, network.timebase)
        for event in entry.events:
            (flat,) = flat_events(network, (event,))
            entries = schedule(entries, time, entry.microstep, flat, network)
    now = to_ticks(elapsed, network.timebase)
    return SystemState(network, network.mode(slots), slots, first.values, first.statuses, entries, now, microstep)


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
