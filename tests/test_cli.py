"""Command-line behavior: exit codes, streams, formats, color, determinism."""

import json
import subprocess
import sys

import jsonschema
import pytest

from de_fixpoint.buchi import MAX_TABLEAU_NODES
from de_fixpoint.cli import _state_line, main
from de_fixpoint.errors import EngineError
from de_fixpoint.executor import Trace, TraceStep, step, trace_json_text, trace_step_text
from de_fixpoint.formula_parser import parse_formula
from de_fixpoint.parser import parse_model
from de_fixpoint.postfire import initialize
from de_fixpoint.state import fsm_locations
from de_fixpoint.syntax import MAX_DEPTH
from de_fixpoint.values import IntVal

import families
from conftest import many_untils, model_path, stack_depth

FLAT = model_path("flat_traffic_light.model")
HIER = model_path("hierarchical_traffic_light.model")
MUTANT = model_path("hierarchical_traffic_light_mutant.model")
CYCLE = model_path("causality_cycle.model")

RATIONAL = {
    "oneOf": [{"type": "integer"}, {"type": "string", "pattern": "^-?\\d+/\\d+$"}]
}
VALUE = {
    "oneOf": [
        {"type": "integer"},
        {"type": "boolean"},
        {"type": "string"},
        {
            "type": "object",
            "properties": {"time": RATIONAL},
            "required": ["time"],
            "additionalProperties": False,
        },
    ]
}
TRACE_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "elapsed": RATIONAL,
            "microstep": {"type": "integer", "minimum": 0},
            "kind": {
                "type": "object",
                "properties": {
                    "type": {"enum": ["tick", "microstep", "iteration"]},
                    "dt": RATIONAL,
                    "n": {"type": "integer"},
                },
                "required": ["type"],
                "additionalProperties": False,
            },
            "changedVariables": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "additionalProperties": VALUE,
                },
            },
            "fsmLocations": {
                "type": "object",
                "additionalProperties": {"type": "string"},
            },
            "queueSummary": {
                "type": "array",
                "items": {
                    "type": "array",
                    "prefixItems": [
                        RATIONAL,
                        {"type": "integer"},
                        {"type": "integer"},
                    ],
                    "minItems": 3,
                    "maxItems": 3,
                },
            },
        },
        "required": [
            "elapsed",
            "microstep",
            "kind",
            "changedVariables",
            "fsmLocations",
            "queueSummary",
        ],
        "additionalProperties": False,
    },
}


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("DE_FIXPOINT_COLOR", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# simulate. ---------------------------------------------------------------------


def test_simulate_text_trace(capsys):
    code, out, err = run(capsys, "simulate", FLAT, "--until", "3")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "t=0 m=0 iteration"
    assert "stopped: time bound 3 reached" in out
    assert lines[-1].startswith("final: t=3 m=0")
    assert "FlatTrafficLight.CarLight=" in lines[-1]


def test_simulate_requires_a_bound(capsys):
    code, _, err = run(capsys, "simulate", FLAT)
    assert code == 2


def test_simulate_rejects_negative_bound(capsys):
    code, _, _ = run(capsys, "simulate", FLAT, "--until", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "command, flags",
    [("simulate", ()), ("search", ("--prop", "'FlatTrafficLight | 'Cred = 1")), ("check", ("--formula", "True"))],
)
def test_a_zero_denominator_bound_is_a_usage_error(capsys, command, flags):
    # Fraction("1/0") raises ZeroDivisionError, which argparse would let
    # escape main; scripts must not read the crash as a verdict.
    code, out, err = run(capsys, command, FLAT, *flags, "--until", "1/0")
    assert code == 2 and out == ""
    assert "argument --until: invalid" in err


def test_simulate_step_limit_is_reported(capsys):
    code, out, _ = run(capsys, "simulate", FLAT, "--until", "50", "--max-steps", "5")
    assert code == 0
    assert "stopped: step limit (5) reached" in out


def test_simulate_json_is_valid_and_deterministic(capsys):
    code, out1, err = run(capsys, "simulate", FLAT, "--until", "4", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out1)
    jsonschema.validate(payload, TRACE_SCHEMA)
    code, out2, _ = run(capsys, "simulate", FLAT, "--until", "4", "--format", "json")
    assert code == 0
    assert out1 == out2  # byte-for-byte reproducible
    kinds = [record["kind"]["type"] for record in payload]
    assert "tick" in kinds and "iteration" in kinds


def test_simulate_json_covers_microsteps(capsys, tmp_path):
    model = tmp_path / "instant.model"
    model.write_text(
        """format 1

composite Instant {
  clock Clock { period = 1 }
  delay Echo { delay = 0.0 }
  connect Clock.output -> Echo.input
}
""",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "simulate", str(model), "--until", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, TRACE_SCHEMA)
    kinds = [record["kind"]["type"] for record in payload]
    assert "microstep" in kinds
    bumped = next(r for r in payload if r["kind"]["type"] == "microstep")
    assert bumped["microstep"] == 1


def test_simulate_fractional_bound(capsys):
    code, out, _ = run(capsys, "simulate", FLAT, "--until", "5/2")
    assert code == 0
    assert "stopped: time bound 5/2 reached" in out
    assert "final: t=2 m=0" in out


def test_simulate_causality_cycle_is_a_semantic_error(capsys):
    code, out, err = run(capsys, "simulate", CYCLE, "--until", "2")
    assert code == 3
    assert "error:" in err
    for port in ("A.In", "A.Out", "B.In", "B.Out"):
        assert port in err


def test_simulate_bottom_as_absent_recovers(capsys):
    code, out, err = run(
        capsys, "simulate", CYCLE, "--until", "2", "--bottom-as-absent"
    )
    assert code == 0
    assert "stopped: time bound 2 reached" in out


# search. -------------------------------------------------------------------------


def test_search_found(capsys):
    code, out, _ = run(
        capsys,
        "search",
        HIER,
        "--prop",
        "'HierarchicalTrafficLight . 'TrafficLight . 'error . 'ErrorLight @ 'Eon",
    )
    assert code == 0
    assert out.startswith("found at step ")
    assert "t=16 m=0" in out


def test_search_not_found(capsys):
    code, out, _ = run(
        capsys,
        "search",
        HIER,
        "--prop",
        "'HierarchicalTrafficLight | 'Cred = 77",
    )
    assert code == 1
    assert out.startswith("not found (")
    assert "states explored" in out


def test_search_bad_prop_syntax(capsys):
    code, _, err = run(capsys, "search", HIER, "--prop", "Cred = 1")
    assert code == 2
    assert "syntax error:" in err


def test_search_unknown_name_is_semantic(capsys):
    code, _, err = run(
        capsys, "search", HIER, "--prop", "'HierarchicalTrafficLight | 'ghost = 1"
    )
    assert code == 3
    assert "error:" in err and "ghost" in err


def test_a_missing_actor_or_location_is_semantic(capsys):
    # A misspelled location is an error, not a proposition that never holds.
    cases = [
        (
            ("check", FLAT, "--formula", "[] ~ ('FlatTrafficLight . 'CarLight @ 'Cgren)"),
            "error: FlatTrafficLight.CarLight has no location 'Cgren'\n",
        ),
        (("search", FLAT, "--prop", "'X @ 'a"), "error: no actor X\n"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (3, "", message)


def test_a_missing_variable_is_semantic_wherever_it_stands(capsys):
    # After a value that holds on no state, the name is still looked up.
    prop = "'FlatTrafficLight | ('Cred = 5, 'nosuch = 1)"
    message = "error: FlatTrafficLight has no variable 'nosuch'\n"
    assert run(capsys, "search", FLAT, "--prop", prop) == (3, "", message)
    assert run(capsys, "check", FLAT, "--formula", f"[] ~ ({prop})") == (3, "", message)


def test_search_bounded_can_miss(capsys):
    prop = "'HierarchicalTrafficLight . 'TrafficLight . 'error . 'ErrorLight @ 'Eon"
    code, _, _ = run(capsys, "search", HIER, "--prop", prop, "--until", "10")
    assert code == 1
    code, _, _ = run(capsys, "search", HIER, "--prop", prop, "--until", "16")
    assert code == 0


def test_bound_flags_are_mutually_exclusive(capsys):
    code, _, _ = run(
        capsys,
        "search",
        HIER,
        "--prop",
        "'HierarchicalTrafficLight | 'Cred = 1",
        "--until",
        "5",
        "--unbounded",
    )
    assert code == 2


# check. ----------------------------------------------------------------------------


def test_check_holds(capsys):
    code, out, _ = run(
        capsys,
        "check",
        HIER,
        "--formula",
        "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))",
    )
    assert code == 0
    assert out.startswith("holds (")


def test_check_failure_prints_lasso_counterexample(capsys):
    code, out, _ = run(
        capsys,
        "check",
        MUTANT,
        "--formula",
        "[] ~ ('HierarchicalTrafficLight | ('Pgrn = 1, 'Cgrn = 1))",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("fails (")
    assert "counterexample prefix:" in lines
    assert "repeating cycle:" in lines
    cycle_at = lines.index("repeating cycle:")
    assert any(line.strip().startswith("[") for line in lines[cycle_at + 1 :])


def test_witness_lines_show_time_and_locations_as_before():
    # A state line shows the exact rational time and the machines sorted by
    # path, as str(state.elapsed) and sorted(fsm_locations(state)) show
    # them, without building either per line.  The crossings' half-unit
    # delays put states at t=k/2.
    state = initialize(parse_model(families.crossings((2, 3), 4, 0)))
    seen = set()
    for _ in range(80):
        locs = ", ".join(f"{path}={loc}" for path, loc in sorted(fsm_locations(state).items()))
        assert _state_line(state) == f"t={state.elapsed} m={state.microstep_of_instant}  [{locs}]"
        seen.add(state.elapsed.denominator)
        state, _ = step(state)
    assert seen == {1, 2}


def nested(kind, depth):
    """A formula nested ``depth`` levels deep by prefix, group or chain."""
    if kind == "prefix":
        return "~ " * depth + "True"
    if kind == "group":
        return "(" * depth + "True" + ")" * depth
    return " /\\ ".join(["True"] * (depth + 1))


@pytest.mark.parametrize("kind, depth", [("prefix", 1200), ("group", 1200), ("chain", 1500)])
def test_deeply_nested_formula_is_a_syntax_error_not_a_verdict(capsys, kind, depth):
    code, out, err = run(capsys, "check", FLAT, "--formula", nested(kind, depth))
    assert code == 2
    assert out == ""
    assert err.startswith("syntax error:") and f"more than {MAX_DEPTH} levels" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["prefix", "group", "chain"])
def test_formula_nesting_limit_is_exact(capsys, kind):
    code, out, _ = run(capsys, "check", FLAT, "--formula", nested(kind, MAX_DEPTH))
    assert code == 0 and out.startswith("holds")
    code, _, err = run(capsys, "check", FLAT, "--formula", nested(kind, MAX_DEPTH + 1))
    assert code == 2 and err.startswith("syntax error:")


@pytest.mark.parametrize("kind", ["prefix", "group", "chain"])
def test_deeply_nested_guard_is_a_syntax_error(capsys, tmp_path, kind):
    def model(depth):
        guard = nested(kind, depth).replace("~", "!").replace("/\\", "&&")
        guard = guard.replace("True", "isPresent(In)")
        path = tmp_path / f"deep{depth}.model"
        path.write_text(
            f"""format 1

composite Deep {{
  clock Clock {{ period = 1 }}
  fsm M {{
    input In
    initial s
    transition s -> s {{ guard {guard} }}
  }}
  connect Clock.output -> M.In
}}
""",
            encoding="utf-8",
        )
        return str(path)

    code, _, err = run(capsys, "simulate", model(1500), "--until", "1")
    assert code == 2 and err.startswith("syntax error:")
    code, _, err = run(capsys, "simulate", model(MAX_DEPTH + 1), "--until", "1")
    assert code == 2 and err.startswith("syntax error:")
    code, _, _ = run(capsys, "simulate", model(MAX_DEPTH), "--until", "1")
    assert code == 0


@pytest.mark.parametrize("kind", ["prefix", "group"])
def test_nesting_limit_parses_within_a_small_stack(capsys, tmp_path, kind):
    # A caller already deep in its own stack must still be able to parse
    # anything the limit accepts: a few frames per level, not one per rule.
    guard = nested(kind, MAX_DEPTH).replace("~", "!").replace("True", "isPresent(In)")
    path = tmp_path / "deep.model"
    path.write_text(
        "format 1\n\ncomposite Deep {\n  clock Clock { period = 1 }\n  fsm M {\n"
        f"    input In\n    initial s\n    transition s -> s {{ guard {guard} }}\n  }}\n"
        "  connect Clock.output -> M.In\n}\n",
        encoding="utf-8",
    )
    formula = nested(kind, MAX_DEPTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 450)
    try:
        code, _, err = run(capsys, "simulate", str(path), "--until", "1")
        parse_formula(formula)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")


def test_checker_safety_net_is_an_internal_error(capsys, monkeypatch):
    def disagree(graph, formula):
        raise AssertionError("model-checking routes disagree")

    monkeypatch.setattr("de_fixpoint.cli.check_ltl", disagree)
    code, out, err = run(capsys, "check", FLAT, "--formula", "True")
    assert code == 4
    assert out == ""
    assert err == "internal error: AssertionError: model-checking routes disagree\n"


def test_check_state_budget_exhaustion_is_semantic(capsys):
    code, _, err = run(
        capsys,
        "check",
        HIER,
        "--formula",
        "True",
        "--max-states",
        "3",
    )
    assert code == 3
    assert "error:" in err


def test_check_stops_an_automaton_past_the_tableau_bound(capsys):
    # The tableau of 100 nested [] outgrows any bound; it used to run for
    # minutes.
    always = "[] " * MAX_DEPTH + "'HierarchicalTrafficLight . 'Decision @ 'Normal"
    code, out, err = run(capsys, "check", HIER, "--formula", always)
    assert (code, out) == (3, "")
    assert err == f"error: state space exceeded {MAX_TABLEAU_NODES} tableau nodes\n"


def test_check_stops_an_automaton_past_its_state_bound(capsys):
    # 350 untils: about 2 800 tableau nodes, but more than 100 000
    # automaton states (one per node and fairness set it waits on).
    code, out, err = run(capsys, "check", HIER, "--formula", many_untils(350))
    assert (code, out) == (3, "")
    assert err == f"error: state space exceeded {MAX_TABLEAU_NODES} automaton states\n"


def test_check_state_budget_does_not_bound_the_tableau(capsys):
    # --max-states bounds the graph (63 states) only: this formula's tableau
    # creates hundreds of nodes, as the benchmark's formulas do.
    locations = ["'Dinit", "'Normal", "'Abnormal"] * 3
    chain = " U (".join(f"'HierarchicalTrafficLight . 'Decision @ {loc}" for loc in locations[:7])
    formula = f"[] <> 'HierarchicalTrafficLight . 'Decision @ 'Normal \\/ ({chain}{')' * 6})"
    code, out, err = run(capsys, "check", HIER, "--formula", formula, "--max-states", "64")
    assert (code, out, err) == (0, "holds (63 states explored)\n", "")


def test_check_bad_formula_syntax(capsys):
    code, _, err = run(capsys, "check", HIER, "--formula", "[] (")
    assert code == 2
    assert "syntax error:" in err


def test_check_bottom_as_absent_flag(capsys):
    code, out, _ = run(
        capsys,
        "check",
        CYCLE,
        "--formula",
        "[] 'FeedbackLoop . 'A @ 'S",
        "--bottom-as-absent",
    )
    assert code == 0
    code, _, err = run(capsys, "check", CYCLE, "--formula", "[] 'FeedbackLoop . 'A @ 'S")
    assert code == 3


# dump. ---------------------------------------------------------------------------


def test_dump_prints_canonical_form(capsys, tmp_path):
    code, out, err = run(capsys, "dump", FLAT)
    assert code == 0 and err == ""
    with open(FLAT, encoding="utf-8") as handle:
        body = handle.read()
    assert out == body[body.index("format 1") :]
    # Dumping a dump changes nothing further.
    echo = tmp_path / "echo.model"
    echo.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "dump", str(echo))
    assert code == 0 and out2 == out


def test_dump_reports_syntax_errors_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("format 1\ncomposite T { clock C period = 1 } }\n", encoding="utf-8")
    code, _, err = run(capsys, "dump", str(bad))
    assert code == 2
    assert "syntax error: 2:" in err


def test_missing_file_is_a_semantic_error(capsys):
    for command, *flags in (
        ("dump",),
        ("simulate", "--until", "1"),
        ("search", "--prop", "'T | 'x = 1"),
        ("check", "--formula", "True"),
    ):
        code, _, err = run(capsys, command, "no/such/file.model", *flags)
        assert code == 3
        assert err.startswith("error: cannot read no/such/file.model: "), command


def test_a_file_that_is_not_utf8_is_a_semantic_error(capsys, tmp_path):
    latin = tmp_path / "latin1.model"
    latin.write_bytes("format 1\ncomposite T { // caf\u00e9\n}\n".encode("latin-1"))
    code, out, err = run(capsys, "dump", str(latin))
    assert (code, out) == (3, "")
    assert err == f"error: cannot read {latin}: not UTF-8 text (byte 29)\n"


# Python (3.11, and patch releases of 3.10 on) converts no longer run of
# digits than this between int and text; 0 means no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")


@needs_digit_limit
def test_a_number_literal_past_the_digit_limit_is_a_syntax_error(capsys, tmp_path):
    big = "9" * (DIGIT_LIMIT + 1)
    too_long = f"number literal too long (over {DIGIT_LIMIT} digits)"
    clock = tmp_path / "clock.model"
    clock.write_text(f"format 1\ncomposite T {{ clock C {{ period = {big} }} }}\n", encoding="utf-8")
    variable = tmp_path / "variable.model"
    variable.write_text(f"format 1\ncomposite T {{ var x = {big} }}\n", encoding="utf-8")
    decimal = tmp_path / "decimal.model"
    decimal.write_text(f"format 1\ncomposite T {{ clock C {{ period = 1.{big} }} }}\n", encoding="utf-8")
    for argv, where in (
        (("dump", str(clock)), "2:34"),
        (("simulate", str(variable), "--until", "1"), "2:23"),
        (("check", str(decimal), "--formula", "True"), "2:34"),
        (("search", FLAT, "--prop", f"'FlatTrafficLight | 'Cred = {big}"), "1:29"),
        (("check", FLAT, "--formula", f"[] ('FlatTrafficLight | 'Cred = -{big})"), "1:34"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"syntax error: {where}: {too_long}\n"), argv[0]


SQUARING = """format 1
composite T {
  clock C { period = 1 }
  fsm M {
    input In
    var x = 9
    initial s
    transition s -> s { guard isPresent(In) set x = x * x }
  }
  connect C.output -> M.In
}
"""


@needs_digit_limit
def test_a_variable_past_the_digit_limit_cannot_be_printed():
    # The engine stops a value before it grows this long, but a state
    # built by hand may hold one: the printers name it.
    state = initialize(parse_model(SQUARING))
    after, kind = step(state)
    changed = TraceStep(kind, after, {"T.M": {"x": IntVal(10**DIGIT_LIMIT)}})
    message = f"^cannot print T\\.M\\.x: its value has over {DIGIT_LIMIT} digits$"
    with pytest.raises(EngineError, match=message):
        trace_step_text(changed)
    with pytest.raises(EngineError, match=message):
        trace_json_text(Trace(state, [changed]))


@needs_digit_limit
def test_a_value_past_the_digit_limit_is_a_semantic_error(capsys, tmp_path):
    # x = 9^(2^t) has 7 817 digits at t = 13: the step that computes it
    # fails, in every subcommand.  A graph reaches it at about 25 states,
    # well inside a budget of 40, which a value that only grows would
    # exhaust instead.
    model = tmp_path / "squaring.model"
    model.write_text(SQUARING, encoding="utf-8")
    message = f"error: T.M.x: value too long (over {DIGIT_LIMIT} digits)\n"
    for argv in (
        ("simulate", str(model), "--until", "14"),
        ("simulate", str(model), "--until", "14", "--format", "json"),
        ("search", str(model), "--prop", "'T . 'M | 'x = 0", "--max-states", "40"),
        ("check", str(model), "--formula", "[] 'T . 'M @ 's", "--max-states", "40"),
        ("check", str(model), "--until", "14", "--formula", "[] 'T . 'M @ 's"),
    ):
        assert run(capsys, *argv) == (3, "", message), argv


def nested_blocks(tmp_path, depth):
    """A model file of ``depth`` actor blocks, each inside the last: composites
    around one clock, the top one holding a variable."""
    text = "format 1\n" + "".join(f"composite C{k} {{\n" for k in range(depth - 1))
    text = text.replace("{\n", "{\nvar x = 0\n", 1) + "clock K { period = 1 }\n" + "}\n" * (depth - 1)
    path = tmp_path / f"blocks{depth}.model"
    path.write_text(text, encoding="utf-8")
    return str(path)


SUBCOMMANDS = (
    ("dump",),
    ("simulate", "--until", "2"),
    ("search", "--prop", "'C0 | 'x = 0"),
    ("check", "--formula", "[] ('C0 | 'x = 0)"),
)


def test_actor_nesting_limit_is_exact(capsys, tmp_path):
    deepest = nested_blocks(tmp_path, MAX_DEPTH)
    for command, *flags in SUBCOMMANDS:
        code, _, err = run(capsys, command, deepest, *flags)
        assert (code, err) == (0, ""), command
    # The 101st block is the clock, on line 103 (a header, the top
    # block's two lines, then one line per block).
    too_deep = nested_blocks(tmp_path, MAX_DEPTH + 1)
    for command, *flags in SUBCOMMANDS:
        code, out, err = run(capsys, command, too_deep, *flags)
        assert (code, out) == (2, ""), command
        assert err == f"syntax error: 103:1: actor blocks nested more than {MAX_DEPTH} levels deep\n"


def test_deeply_nested_actor_blocks_are_a_syntax_error(capsys, tmp_path):
    # Far past the limit, the recursive passes over a tree would overflow
    # Python's stack if the parser let the model through.
    deep = nested_blocks(tmp_path, 1500)
    for command, *flags in SUBCOMMANDS:
        code, _, err = run(capsys, command, deep, *flags)
        assert code == 2 and "nested more than" in err, command


def test_invalid_model_is_a_semantic_error(capsys, tmp_path):
    bad = tmp_path / "invalid.model"
    bad.write_text(
        "format 1\ncomposite T { clock C { period = 0 } }\n", encoding="utf-8"
    )
    code, _, err = run(capsys, "simulate", str(bad), "--until", "1")
    assert code == 3
    assert "invalid model:" in err


def test_unknown_subcommand_is_usage(capsys):
    code, _, _ = run(capsys, "noop", FLAT)
    assert code == 2


# Color handling. --------------------------------------------------------------------


def test_color_can_be_forced_on(capsys, monkeypatch):
    monkeypatch.setenv("DE_FIXPOINT_COLOR", "1")
    code, out, _ = run(capsys, "simulate", FLAT, "--until", "1")
    assert code == 0
    assert "\x1b[32m" in out


def test_color_defaults_off_when_not_a_tty(capsys, monkeypatch):
    monkeypatch.delenv("DE_FIXPOINT_COLOR", raising=False)
    code, out, _ = run(capsys, "simulate", FLAT, "--until", "1")
    assert code == 0
    assert "\x1b[" not in out


def test_the_shared_parser_carries_nothing_from_call_to_call(capsys, monkeypatch):
    # One process reuses one argparse parser; each call must answer as a
    # fresh process does, whatever ran before it.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["simulate", CYCLE],  # no --until: a usage error
        ["simulate", CYCLE, "--until", "10", "--bottom-as-absent"],
        ["simulate", CYCLE, "--until", "10"],
        ["--help"],
        ["--help"],
    ]
    codes = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "de_fixpoint.cli", *argv], capture_output=True, text=True
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [2, 0, 3, 0, 0]


# Console script. ---------------------------------------------------------------------


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "de_fixpoint.cli", "dump", FLAT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("format 1")


def test_closed_output_pipe_is_not_a_crash():
    # `de-fixpoint simulate ... | head -1` must not spray a traceback.
    # The bound keeps the trace far larger than a kernel pipe buffer, so
    # the writer is guaranteed to hit the closed pipe mid-stream.
    proc = subprocess.Popen(
        [sys.executable, "-m", "de_fixpoint.cli", "simulate", FLAT, "--until", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.readline()
    proc.stdout.close()  # the reader goes away mid-stream
    assert proc.wait() == 141
    assert "Traceback" not in proc.stderr.read()
    proc.stderr.close()
