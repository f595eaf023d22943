"""Temporal checking: dual-route verdicts, witnesses, bounded semantics."""

import gc
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint import checker
from de_fixpoint.buchi import MAX_TABLEAU_NODES, BuchiAutomaton, Release, ltl_to_buchi
from de_fixpoint.checker import check_ltl, eval_on_lasso
from de_fixpoint.errors import NoSuchActor, NoSuchLocation, NoSuchVariable, NotAnFsm, StateSpaceExceeded
from de_fixpoint.executor import step
from de_fixpoint.formula import (
    Always,
    And,
    Atom,
    Eventually,
    FalseF,
    Formula,
    Implies,
    Not,
    Or,
    Scope,
    TrueF,
    Until,
    collect_atoms,
    desugar,
)
from de_fixpoint.formula_parser import parse_formula
from de_fixpoint.graph import build_state_graph
from de_fixpoint.model import COMPOSITE, FSM, ActorNode
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.props import pack_row, prop_holds, prop_row
from de_fixpoint.state import collect_variables

import families
import ltl_ref
import ndfs_ref
from conftest import initial_state, many_untils, started


def lasso_state(location):
    fsm = ActorNode(
        "M",
        FSM,
        locations=("a", "b", "c"),
        init_location="a",
    )
    return started(ActorNode("Top", COMPOSITE, inner=(fsm,)), locations={"Top.M": location})


ABC = [lasso_state("a"), lasso_state("b"), lasso_state("c")]


def fm(text):
    return desugar(parse_formula(text))


# Direct lasso evaluation. -------------------------------------------------------


def test_eval_on_lasso_hand_cases():
    # Word: a, then (b c) repeating.
    assert eval_on_lasso(ABC, 1, fm("'Top . 'M @ 'a"))
    assert not eval_on_lasso(ABC, 1, fm("'Top . 'M @ 'b"))
    assert eval_on_lasso(ABC, 1, fm("<> 'Top . 'M @ 'c"))
    assert eval_on_lasso(ABC, 1, fm("'Top . 'M @ 'a U 'Top . 'M @ 'b"))
    assert eval_on_lasso(ABC, 1, fm("[] <> 'Top . 'M @ 'b"))
    assert not eval_on_lasso(ABC, 1, fm("[] <> 'Top . 'M @ 'a"))
    assert not eval_on_lasso(ABC, 1, fm("<> [] 'Top . 'M @ 'c"))
    assert eval_on_lasso(ABC, 1, fm("[] ('Top . 'M @ 'b -> <> 'Top . 'M @ 'c)"))
    # Whole word on the cycle: everything recurs.
    assert eval_on_lasso(ABC, 0, fm("[] <> 'Top . 'M @ 'a"))
    with pytest.raises(ValueError):
        eval_on_lasso(ABC, 3, fm("True"))


def test_eval_on_lasso_matches_reference_on_synthetic_words():
    formulas = [
        "[] ('Top . 'M @ 'a \\/ 'Top . 'M @ 'b \\/ 'Top . 'M @ 'c)",
        "('Top . 'M @ 'a U 'Top . 'M @ 'b) U 'Top . 'M @ 'c",
        "<> [] ('Top . 'M @ 'b \\/ 'Top . 'M @ 'c)",
        "~ ([] <> 'Top . 'M @ 'a)",
        "True U 'Top . 'M @ 'c",
    ]
    words = [
        (ABC, 0),
        (ABC, 1),
        (ABC, 2),
        ([lasso_state("a")] * 2 + [lasso_state("b")], 2),
        ([lasso_state("c"), lasso_state("b"), lasso_state("a"), lasso_state("b")], 1),
    ]
    for text in formulas:
        f = fm(text)
        atoms = collect_atoms(f)
        for states, loop in words:
            vals = [{prop: prop_holds(s, prop) for prop in atoms} for s in states]
            assert eval_on_lasso(states, loop, f) == ltl_ref.eval_word(
                vals, loop, f
            ), (text, loop)


# Full checking on the fixture graphs. ---------------------------------------------


ERRORLIGHT = "'HierarchicalTrafficLight . 'TrafficLight . 'error . 'ErrorLight"

HOLDS = [
    "[] <> ({} @ 'Eon)".format(ERRORLIGHT),
    "<> 'HierarchicalTrafficLight . 'Decision @ 'Abnormal",
    "[] ~ ('HierarchicalTrafficLight | 'Cred = 7)",
    "[] ('HierarchicalTrafficLight . 'Decision @ 'Abnormal -> <> 'HierarchicalTrafficLight . 'Decision @ 'Normal)",
]

FAILS = [
    "[] 'HierarchicalTrafficLight . 'Decision @ 'Normal",
    "<> ('HierarchicalTrafficLight | 'Cred = 7)",
    "[] <> 'HierarchicalTrafficLight . 'Decision @ 'Dinit",
]


@pytest.mark.parametrize("text", HOLDS)
def test_fixture_facts_that_hold(hier_graph, text):
    verdict = check_ltl(hier_graph, parse_formula(text))
    assert verdict.holds and verdict.witness is None
    assert verdict.graph is hier_graph


@pytest.mark.parametrize("text", FAILS)
def test_fixture_facts_that_fail(hier_graph, text):
    verdict = check_ltl(hier_graph, parse_formula(text))
    assert not verdict.holds


def test_verdict_agrees_with_reference_word_semantics(hier_graph):
    for text in HOLDS + FAILS:
        f = fm(text)
        atoms = collect_atoms(f)
        vals = [
            {prop: prop_holds(s, prop) for prop in atoms} for s in hier_graph.nodes
        ]
        expected = ltl_ref.eval_word(vals, hier_graph.cycle_entry(), f)
        assert check_ltl(hier_graph, parse_formula(text)).holds == expected, text


def test_witness_is_a_replayable_run(mutant_graph):
    verdict = check_ltl(
        mutant_graph,
        parse_formula(
            "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"
        ),
    )
    assert not verdict.holds
    witness = verdict.witness
    assert witness is not None
    ids = witness.prefix_ids + witness.cycle_ids
    assert ids[0] == 0
    for here, there in zip(ids, ids[1:]):
        assert mutant_graph.succ[here] == there
    assert mutant_graph.succ[ids[-1]] == witness.cycle_ids[0]
    bad = parse_formula("'HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1)")
    bad_prop_states = [
        s
        for s in witness.prefix + witness.cycle
        if prop_holds(s, desugar(bad).prop)
    ]
    assert bad_prop_states, "witness must actually exhibit the violation"


MUTEX = "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"


def test_replay_steps_through_the_witness_once(mutant_graph, monkeypatch):
    steps = []

    def counting_step(state, **kwargs):
        steps.append(state)
        return step(state, **kwargs)

    monkeypatch.setattr(checker, "step", counting_step)
    witness = check_ltl(mutant_graph, parse_formula(MUTEX)).witness
    # One step per witness edge, the edge that closes the cycle included.
    assert len(steps) == len(witness.prefix) + len(witness.cycle)


def test_replay_evaluates_each_atom_once_per_witness_state(mutant_graph, monkeypatch):
    # The formula reads `bad` twice; replay builds one row per atom from
    # the witness states, and the graph's rows never pass through it.
    bad = "('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"
    text = f"[] ({bad} -> ({bad} U 'HierarchicalTrafficLight | 'Cred = 1))"
    calls = Counter()

    def counting(state, prop):
        calls[prop] += 1
        return prop_holds(state, prop)

    monkeypatch.setattr(checker, "prop_holds", counting)
    witness = check_ltl(replace(mutant_graph), parse_formula(text)).witness
    length = len(witness.prefix) + len(witness.cycle)
    assert calls == {prop: length for prop in collect_atoms(fm(text))}


@pytest.mark.parametrize("text", HOLDS + FAILS + [MUTEX])
def test_one_check_asks_each_guard_once_per_valuation_class(hier_graph, mutant_graph, monkeypatch, text):
    # Both product searches of a failing formula share one memo, so no
    # (automaton state, valuation class) pair is asked twice in a check.
    asked = Counter()
    guard_holds = BuchiAutomaton.guard_holds

    def counting(self, sid, valuation):
        asked[sid, frozenset(valuation.items())] += 1
        return guard_holds(self, sid, valuation)

    monkeypatch.setattr(BuchiAutomaton, "guard_holds", counting)
    graph = mutant_graph if text == MUTEX else hier_graph
    check_ltl(replace(graph), parse_formula(text))
    assert asked and max(asked.values()) == 1


def test_a_checked_graph_is_freed_with_its_last_reference():
    # Checking builds no reference cycle through the graph's states, so
    # their network goes with the graph, without the cycle collector.
    gc.disable()
    try:
        graph = build_state_graph(initial_state("hierarchical_traffic_light_mutant.model"))
        assert check_ltl(graph, parse_formula(HOLDS[1])).holds
        assert not check_ltl(graph, parse_formula(MUTEX)).holds
        network = weakref.ref(graph.nodes[0].network)
        del graph
        assert network() is None
    finally:
        gc.enable()


def test_replay_rejects_a_witness_the_executor_does_not_reproduce(mutant_graph):
    witness = check_ltl(mutant_graph, parse_formula(MUTEX)).witness
    nodes = list(mutant_graph.nodes)
    last = witness.cycle_ids[-1]
    assert nodes[0] != nodes[last]
    nodes[last] = nodes[0]  # reachable, but not where the run is at that point
    forged = replace(mutant_graph, nodes=nodes)
    with pytest.raises(AssertionError, match="replay diverged"):
        check_ltl(forged, parse_formula(MUTEX))


def test_safety_violation_surfaces_in_finite_prefix(mutant_graph):
    verdict = check_ltl(
        mutant_graph,
        parse_formula("[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))"),
    )
    first_bad = min(
        i
        for i, s in enumerate(mutant_graph.nodes)
        if prop_holds(
            s,
            desugar(
                parse_formula("'HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1)")
            ).prop,
        )
    )
    witness_ids = verdict.witness.prefix_ids + verdict.witness.cycle_ids
    assert first_bad in witness_ids
    assert mutant_graph.nodes[first_bad].elapsed == 16


def test_formula_name_errors_are_loud(hier_graph):
    with pytest.raises(NoSuchActor):
        check_ltl(hier_graph, parse_formula("[] 'Ghost @ 'x"))
    with pytest.raises(NoSuchVariable):
        check_ltl(hier_graph, parse_formula("<> ('HierarchicalTrafficLight | 'ghost = 1)"))
    with pytest.raises(NotAnFsm):
        check_ltl(hier_graph, parse_formula("[] 'HierarchicalTrafficLight @ 'x"))


# Bounded graphs: the stutter tail is the run's future. ---------------------------


def test_automaton_past_the_bound_raises_before_any_search(hier_graph):
    # The tableau stays far under its bound; the automaton's states do not.
    with pytest.raises(StateSpaceExceeded) as err:
        check_ltl(hier_graph, parse_formula(many_untils(350)))
    assert str(err.value) == f"state space exceeded {MAX_TABLEAU_NODES} automaton states"


def test_bounded_check_sees_the_cut_future(flat_state):
    bounded = build_state_graph(flat_state, time_bound=2)
    # At the cut, the car light is red and stays red forever by stuttering.
    stuck_red = parse_formula("<> [] ('FlatTrafficLight | 'Cred = 1)")
    assert check_ltl(bounded, stuck_red).holds
    recur_yellow = parse_formula("[] <> ('FlatTrafficLight | 'Cyel = 1)")
    assert not check_ltl(bounded, recur_yellow).holds


def test_unbounded_check_sees_the_real_cycle(flat_graph):
    stuck_red = parse_formula("<> [] ('FlatTrafficLight | 'Cred = 1)")
    assert not check_ltl(flat_graph, stuck_red).holds
    recur_yellow = parse_formula("[] <> ('FlatTrafficLight | 'Cyel = 1)")
    assert check_ltl(flat_graph, recur_yellow).holds


# Generated formulas against the reference semantics. ------------------------------

# graph fixture -> (atoms to build formulas from, (bad atom, the error it raises))
GENERATED = {
    "flat": (
        (
            "'FlatTrafficLight | 'Cred = 1",
            "'FlatTrafficLight | ('Pgrn = 1, 'Cred = 1)",
            "'FlatTrafficLight . 'CarLight @ 'Cgrn",
            "'FlatTrafficLight . 'PedestrianLight @ 'Pgreen",
        ),
        (
            ("'Ghost @ 'x", NoSuchActor),
            ("'FlatTrafficLight | 'ghost = 1", NoSuchVariable),
            ("'FlatTrafficLight | ('Cred = 5, 'ghost = 1)", NoSuchVariable),
            ("'FlatTrafficLight @ 'x", NotAnFsm),
            ("'FlatTrafficLight . 'CarLight @ 'Cgren", NoSuchLocation),
        ),
    ),
    "hier": (
        (
            "'HierarchicalTrafficLight | 'Cred = 1",
            "'HierarchicalTrafficLight . 'Decision @ 'Abnormal",
            "'HierarchicalTrafficLight . 'TrafficLight @ 'error",
            "'HierarchicalTrafficLight . 'TrafficLight . 'normal . 'PedestrianLight @ 'Pgreen",
        ),
        (
            ("'HierarchicalTrafficLight . 'Ghost @ 'x", NoSuchActor),
            ("'HierarchicalTrafficLight | 'ghost = 1", NoSuchVariable),
            ("'HierarchicalTrafficLight @ 'x", NotAnFsm),
        ),
    ),
}


def formula_texts(atoms, depth=4):
    """Formula source text over ``atoms``, nested at most ``depth`` deep."""
    leaf = st.sampled_from(tuple(atoms) + ("True", "False"))
    if depth == 0:
        return leaf
    sub = formula_texts(atoms, depth - 1)
    return st.one_of(
        leaf,
        st.builds("{} ({})".format, st.sampled_from(("~", "[]", "<>")), sub),
        st.builds(
            "({}) {} ({})".format, sub, st.sampled_from(("/\\", "\\/", "->", "U")), sub
        ),
    )


@st.composite
def generated_checks(draw):
    """A fixture, a formula over its atoms, and one of its bad atoms."""
    name = draw(st.sampled_from(sorted(GENERATED)))
    atoms, bads = GENERATED[name]
    return name, draw(formula_texts(atoms)), draw(st.sampled_from(bads))


def _outcome(verdict):
    if verdict.witness is None:
        return verdict.holds, None, None
    return verdict.holds, verdict.witness.prefix_ids, verdict.witness.cycle_ids


# The session's graphs are warm: other tests and earlier examples have
# checked formulas on them.  replace() gives the same graph with no check
# run on it yet.


@given(case=generated_checks())
def test_generated_formulas_agree_with_reference_on_warm_and_fresh_graphs(
    flat_graph, hier_graph, case
):
    name, text, _ = case
    warm = {"flat": flat_graph, "hier": hier_graph}[name]
    f = fm(text)
    vals = [{prop: prop_holds(s, prop) for prop in collect_atoms(f)} for s in warm.nodes]
    expected = ltl_ref.eval_word(vals, warm.cycle_entry(), f)
    on_warm = _outcome(check_ltl(warm, parse_formula(text)))
    assert on_warm[0] == expected
    assert _outcome(check_ltl(replace(warm), parse_formula(text))) == on_warm


@given(
    case=generated_checks(),
    shape=st.sampled_from(("({}) /\\ ({})", "({}) U ({})", "[] (({}) -> <> ({}))")),
)
def test_generated_bad_names_raise_the_same_error_warm_and_fresh(
    flat_graph, hier_graph, case, shape
):
    name, text, (bad_text, error) = case
    text = shape.format(text, bad_text)
    warm = {"flat": flat_graph, "hier": hier_graph}[name]
    # Twice on the warm graph: a row that failed must fail again, not be kept.
    for graph in (warm, warm, replace(warm)):
        with pytest.raises(error):
            check_ltl(graph, parse_formula(text))


# The stutter-compressed product. ---------------------------------------------------

CONNECTIVES = {
    Atom, TrueF, FalseF, Not, And, Or, Implies, Until, Always, Eventually, Scope, Release
}


def test_every_formula_class_is_stutter_invariant():
    found, todo = set(), [Formula]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                todo.append(cls)
    unknown = sorted(cls.__qualname__ for cls in found - CONNECTIVES)
    assert not unknown, (
        f"unknown formula classes {unknown}: a next operator would void the "
        "stutter compression check_ltl decides verdicts on"
    )


WORD_ATOMS = ("'M @ 'a", "'M @ 'b")
WORD_PROPS = tuple(desugar(parse_formula(text)).prop for text in WORD_ATOMS)
# Class c is the valuation of the atoms spelled by c's bits.
WORD_VALUATIONS = [
    dict(zip(WORD_PROPS, bits)) for bits in product((False, True), repeat=len(WORD_PROPS))
]


def minimal_lasso(word, entry, valuations):
    """``checker._minimal_lasso`` of a word of class ids, on the bit rows of
    its atoms: (succ, letters, stem length), letters (tuples of binary
    digits) as class ids again."""
    props = list(valuations[0])
    rows = [pack_row([valuations[c][prop] for c in word]) for prop in props]
    stem, cycle = checker._minimal_lasso(rows, len(word), entry)
    class_of = {tuple("01"[truth] for truth in v.values()): c for c, v in enumerate(valuations)}
    letters = [class_of[vector] for vector in stem + cycle]
    return list(range(1, len(letters))) + [len(stem)], letters, len(stem)


def product_verdicts(word, entry, valuations, f):
    """(compressed, full): does ``f`` hold by the short and by the full product?"""
    ba = ltl_to_buchi(Not(f))
    short_succ, letters, _ = minimal_lasso(word, entry, valuations)
    succ = list(range(1, len(word))) + [entry]
    compressed = checker._find_accepting_lasso(short_succ, letters, ba, valuations, {})
    full = checker._find_accepting_lasso(succ, word, ba, valuations, {})
    return compressed is None, full is None


def spelled(succ, letters, steps):
    """The letters of the first ``steps`` positions of a lasso, runs cut to one."""
    out, i = [], 0
    for _ in range(steps):
        if not out or out[-1] != letters[i]:
            out.append(letters[i])
        i = succ[i]
    return out


@st.composite
def lasso_words(draw, shape):
    """A word of class ids and its cycle entry, with a stutter where ``shape`` says."""
    letter = st.integers(0, len(WORD_VALUATIONS) - 1)
    stem = draw(st.lists(letter, max_size=6))
    if shape == "one-letter cycle":
        cycle = [draw(letter)]
    elif shape == "all-equal cycle":
        cycle = [draw(letter)] * draw(st.integers(2, 5))
    elif shape == "cycle wraps on the stem's last letter":
        # Both ends of the short lasso drop a letter: [.., c] + [c, .., c].
        c = draw(letter)
        middle = draw(st.lists(letter.filter(lambda x: x != c), min_size=1, max_size=4))
        stem.append(c)
        cycle = [c, *middle, c]
    elif shape in ("cycle is a power of a shorter one", "stem ends in the cycle's last letters"):
        cycle = draw(st.lists(letter, min_size=1, max_size=4)) * draw(st.integers(1, 4))
    else:
        cycle = draw(st.lists(letter, min_size=1, max_size=8))
    if shape == "stem ends in the cycle's first letter":
        stem.append(cycle[0])
    if shape == "stem ends in the cycle's last letters":
        # Up to two laps of the cycle roll back out of the stem.
        stem += (cycle * 2)[-draw(st.integers(1, 2 * len(cycle))) :]
    return stem + cycle, len(stem)


@pytest.mark.parametrize(
    "shape",
    [
        "free",
        "one-letter cycle",
        "all-equal cycle",
        "stem ends in the cycle's first letter",
        "cycle wraps on the stem's last letter",
        "cycle is a power of a shorter one",
        "stem ends in the cycle's last letters",
    ],
)
@given(data=st.data())
def test_compressed_product_agrees_with_full_product_and_reference(shape, data):
    word, entry = data.draw(lasso_words(shape))
    f = fm(data.draw(formula_texts(WORD_ATOMS, depth=3)))
    succ = list(range(1, len(word))) + [entry]
    short_succ, letters, split = minimal_lasso(word, entry, WORD_VALUATIONS)
    # The short lasso spells the same word up to stutter, and has no
    # stutter left but a one-letter cycle's self-loop.
    want = spelled(succ, word, 3 * len(word))
    assert spelled(short_succ, letters, 3 * len(word))[: len(want)] == want
    assert (short_succ[-1] == len(letters) - 1) == (len(set(word[entry:])) == 1)
    assert all(letters[i] != letters[j] for i, j in enumerate(short_succ) if i != j)
    # It is the minimal lasso: its cycle has no proper period, and its
    # stem's last letter is not the cycle's last, so it cannot roll.
    stem, cycle = letters[:split], letters[split:]
    k = len(cycle)
    assert all(cycle[p:] != cycle[:-p] for p in range(1, k) if k % p == 0)
    assert not stem or stem[-1] != cycle[-1]
    compressed, full = product_verdicts(word, entry, WORD_VALUATIONS, f)
    expected = ltl_ref.eval_word([WORD_VALUATIONS[c] for c in word], entry, f)
    assert compressed == full == expected


@pytest.fixture(scope="module")
def bounded_graphs(flat_state, hier_state):
    return {
        "flat": build_state_graph(flat_state, time_bound=2),
        "hier": build_state_graph(hier_state, time_bound=18),
    }


@given(case=generated_checks())
def test_compressed_verdict_on_bounded_graphs(bounded_graphs, case):
    name, text, _ = case
    graph = bounded_graphs[name]
    last = len(graph.nodes) - 1
    assert graph.succ[last] == last  # the cut run stutters on its last state
    f = fm(text)
    atoms = collect_atoms(f)
    vals = [{prop: prop_holds(s, prop) for prop in atoms} for s in graph.nodes]
    ids = {}
    word = [ids.setdefault(tuple(v.values()), len(ids)) for v in vals]
    valuations = [dict(zip(atoms, key)) for key in ids]
    compressed, full = product_verdicts(word, last, valuations, f)
    expected = ltl_ref.eval_word(vals, last, f)
    assert compressed == full == expected == check_ltl(graph, parse_formula(text)).holds


# Generated models. ------------------------------------------------------------------


@lru_cache(maxsize=8)
def generated_graph(text):
    return build_state_graph(initialize(parse_model(text)))


def proposition_atoms(graph):
    """Source text of every location proposition of a graph's machines, and
    of each value every variable takes on the graph."""
    def actor(path):
        return " . ".join(f"'{name}" for name in path)

    network = graph.nodes[0].network
    atoms = [
        f"{actor(network.paths[i])} @ '{location}"
        for i in network.preorder
        if network.kinds[i] == FSM
        for location in network.nodes[i].locations
    ]
    seen = {}
    for state in graph.nodes:
        for path, variables in collect_variables(state).items():
            for name, value in variables.items():
                seen.setdefault((path, name), set()).add(value.value)
    for (path, name), values in seen.items():
        atoms += [f"{actor(path.split('.'))} | '{name} = {value}" for value in sorted(values)]
    return atoms


@settings(max_examples=30)
@given(data=st.data())
def test_generated_models_agree_with_reference_and_full_product(data):
    # Crossings, zero-delay chains and nested modals: the verdict on the
    # graph's lasso is the reference's, and the stutter-compressed product
    # search agrees with the full one.
    graph = generated_graph(data.draw(families.MODELS))
    atoms = st.lists(st.sampled_from(proposition_atoms(graph)), min_size=1, max_size=3, unique=True)
    text = data.draw(formula_texts(data.draw(atoms), depth=3))
    f = fm(text)
    props = collect_atoms(f)
    vals = [{prop: prop_holds(s, prop) for prop in props} for s in graph.nodes]
    entry = graph.cycle_entry()
    expected = ltl_ref.eval_word(vals, entry, f)
    assert check_ltl(graph, parse_formula(text)).holds == expected
    ids = {}
    word = [ids.setdefault(tuple(v.values()), len(ids)) for v in vals]
    valuations = [dict(zip(props, key)) for key in ids]
    assert product_verdicts(word, entry, valuations, f) == (expected, expected)


ONE_NODE = "format 1\ncomposite T {\n  var x = 0\n  fsm M {\n    initial s0\n  }\n}\n"


@st.composite
def graphs_and_atoms(draw, fixtures):
    """A graph (a fixture's, a generated model's, a bounded or a one-node
    one) and up to three of its propositions."""
    source = draw(st.sampled_from(("fixture", "generated", "bounded", "one node")))
    if source == "generated":
        graph = generated_graph(draw(families.MODELS))
    elif source == "one node":
        graph = generated_graph(ONE_NODE)
        assert len(graph.nodes) == 1
    else:
        graph = draw(st.sampled_from(fixtures[source]))
    atoms = st.lists(st.sampled_from(proposition_atoms(graph)), min_size=1, max_size=3, unique=True)
    return graph, [desugar(parse_formula(text)).prop for text in draw(atoms)]


@settings(max_examples=30)
@given(data=st.data())
def test_atom_bits_are_the_atom_rows_bit_by_bit(flat_graph, hier_graph, mutant_graph, bounded_graphs, data):
    fixtures = {"fixture": (flat_graph, hier_graph, mutant_graph), "bounded": tuple(bounded_graphs.values())}
    graph, props = data.draw(graphs_and_atoms(fixtures))
    fresh = replace(graph)  # nothing kept yet
    nodes = graph.nodes
    for prop in props:
        # An atom's row is kept once, as prop_row packs it: bit i is its
        # truth on node i.
        bits = fresh.atom_bits(prop)
        assert bits == prop_row(nodes, prop)
        assert bits >> len(nodes) == 0
        assert [bits >> i & 1 == 1 for i in range(len(nodes))] == [prop_holds(state, prop) for state in nodes]
        assert fresh.atom_bits(prop) is bits


# The integer product search and the bit-row evaluation against their references. ----


def searches_sharing_one_memo(search, word, entry, valuations, f):
    """The compressed and then the full search of ``f``'s negation over a
    word, sharing one guard memo as check_ltl does, and that memo."""
    ba = ltl_to_buchi(Not(f))
    enters = {}
    short_succ, letters, _ = minimal_lasso(word, entry, valuations)
    succ = list(range(1, len(word))) + [entry]
    compressed = search(short_succ, letters, ba, valuations, enters)
    return compressed, search(succ, word, ba, valuations, enters), enters


@pytest.mark.parametrize(
    "shape",
    [
        "free",
        "one-letter cycle",
        "all-equal cycle",
        "stem ends in the cycle's first letter",
        "cycle wraps on the stem's last letter",
    ],
)
@given(data=st.data())
def test_product_search_returns_the_reference_lasso(shape, data):
    # The very same (prefix, cycle) of (position, automaton state) pairs,
    # and the same guards asked, as the tuple-and-dict reference search.
    word, entry = data.draw(lasso_words(shape))
    f = fm(data.draw(formula_texts(WORD_ATOMS, depth=3)))
    got = searches_sharing_one_memo(checker._find_accepting_lasso, word, entry, WORD_VALUATIONS, f)
    want = searches_sharing_one_memo(ndfs_ref.find_accepting_lasso, word, entry, WORD_VALUATIONS, f)
    assert got == want


@settings(max_examples=20)
@given(data=st.data())
def test_product_search_returns_the_reference_lasso_on_generated_models(data):
    graph = generated_graph(data.draw(families.MODELS))
    atoms = st.lists(st.sampled_from(proposition_atoms(graph)), min_size=1, max_size=3, unique=True)
    f = fm(data.draw(formula_texts(data.draw(atoms), depth=3)))
    props = collect_atoms(f)
    ids = {}
    word = [ids.setdefault(tuple(prop_holds(s, prop) for prop in props), len(ids)) for s in graph.nodes]
    valuations = [dict(zip(props, key)) for key in ids]
    entry = graph.cycle_entry()
    got = searches_sharing_one_memo(checker._find_accepting_lasso, word, entry, valuations, f)
    assert got == searches_sharing_one_memo(ndfs_ref.find_accepting_lasso, word, entry, valuations, f)


@st.composite
def evaluation_lassos(draw, where):
    """A word of class ids and its cycle entry, placed where ``where`` says."""
    letter = st.integers(0, len(WORD_VALUATIONS) - 1)
    if where == "n = 1":
        return [draw(letter)], 0
    longer = {"more than 64 positions": 64, "more than 128 positions": 128}.get(where)
    if longer is None:
        word = draw(st.lists(letter, min_size=1, max_size=12))
    else:
        # Runs of letters, laid end to end until the word is long enough,
        # so that untils and always see long stretches.
        runs = draw(st.lists(st.tuples(letter, st.integers(1, 12)), min_size=1, max_size=12))
        word = [c for c, length in runs for _ in range(length)]
        while len(word) <= longer:
            word += word[draw(st.integers(0, len(word) - 1)) :]
    entry = {"entry 0": 0, "entry n-1": len(word) - 1}.get(where)
    if entry is None:
        entry = draw(st.integers(0, len(word) - 1))
    return word, entry


@pytest.mark.parametrize(
    "where",
    ["entry 0", "entry n-1", "n = 1", "anywhere", "more than 64 positions", "more than 128 positions"],
)
@given(data=st.data())
def test_lap_evaluation_matches_the_references_at_every_position(where, data):
    # The bit-parallel evaluation against the lap-based lists it replaced,
    # the fixpoint sweeps and the word semantics, position by position.
    word, entry = data.draw(evaluation_lassos(where))
    f = fm(data.draw(formula_texts(WORD_ATOMS, depth=4)))
    valuations = [WORD_VALUATIONS[c] for c in word]
    rows = {prop: pack_row([v[prop] for v in valuations]) for prop in WORD_PROPS}
    bits = checker._truth(f, len(word), entry, rows)
    table = [bool(bits >> i & 1) for i in range(len(word))]
    assert bits >> len(word) == 0
    assert table == ltl_ref.eval_laps(valuations, entry, f)
    assert table == ltl_ref.eval_fixpoint(valuations, entry, f)
    assert table == ltl_ref.eval_word_everywhere(valuations, entry, f)
    placeholders = [None] * len(word)  # the rows answer every atom
    assert eval_on_lasso(placeholders, entry, f, rows) is table[0]


# Untils, always and eventually straight on the atoms' rows, whose bits
# are as varied as the word.
ON_ATOMS = [
    "'M @ 'a U 'M @ 'b",
    "~ 'M @ 'a U 'M @ 'b",
    "'M @ 'a U ~ 'M @ 'b",
    "('M @ 'a \\/ 'M @ 'b) U ('M @ 'a /\\ 'M @ 'b)",
    "[] 'M @ 'a",
    "[] ~ 'M @ 'b",
    "<> 'M @ 'a",
    "<> ~ 'M @ 'b",
]


@pytest.mark.parametrize(
    "where",
    ["entry 0", "entry n-1", "n = 1", "anywhere", "more than 64 positions", "more than 128 positions"],
)
@given(data=st.data())
def test_temporal_operators_on_atoms_match_the_references_at_every_position(where, data):
    # An until is one carry: in runs where the left and right rows overlap
    # a wrong propagate mask carries through them.  Always and eventually
    # read the stem up to one bit.
    word, entry = data.draw(evaluation_lassos(where))
    f = fm(data.draw(st.sampled_from(ON_ATOMS)))
    valuations = [WORD_VALUATIONS[c] for c in word]
    rows = {prop: pack_row([v[prop] for v in valuations]) for prop in WORD_PROPS}
    bits = checker._truth(f, len(word), entry, rows)
    assert [bool(bits >> i & 1) for i in range(len(word))] == ltl_ref.eval_laps(valuations, entry, f)
