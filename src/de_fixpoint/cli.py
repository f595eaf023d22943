"""Command-line frontend.

Four subcommands:

    de-fixpoint simulate <model> --until T [--max-steps N] [--format text|json]
    de-fixpoint search   <model> --prop "<prop>" [--until T | --unbounded] [--max-states N]
    de-fixpoint check    <model> --formula "<f>" [--until T | --unbounded] [--max-states N]
    de-fixpoint dump     <model>

Exit codes: 0 when the property holds / a matching state is found / the
command succeeds; 1 when a checked formula fails or a search finds
nothing; 2 for usage and syntax errors (a time bound that is not a
non-negative rational, such as `1/0`, and a formula, expression or
nest of actor blocks more than 100 levels deep included); 3 for
semantic errors (a model file that cannot be read or is not UTF-8
text, causality cycles, nondeterministic machines, exhausted state
budgets, actors, variables and locations a formula names that the
model lacks); 4 for internal errors, which are bugs, so that a crash is
never read as a verdict; 141 when the output pipe closes early.

Results go to stdout, diagnostics to stderr.  `DE_FIXPOINT_COLOR=1`
forces ANSI color on the human-readable output, `=0` disables it; by
default color follows whether stdout is a terminal.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from fractions import Fraction

from .checker import check_ltl
from .errors import EngineError, ParseError, ValidationError
from .executor import DEFAULT_MAX_STEPS, simulate, trace_json_text, trace_step_text
from .formula_parser import parse_formula, parse_prop
from .graph import DEFAULT_MAX_STATES, build_state_graph, search
from .parser import parse_model, print_model
from .postfire import initialize
from .props import prop_holds
from .state import SystemState
from .util import ticks_text

# Bound here only for bench/spans.py, which wraps it by this name until the
# bench reads counters instead (ROADMAP item 1): simulate writes its JSON
# with trace_json_text and never calls it.
from .executor import trace_json  # noqa: F401

log = logging.getLogger(__name__)


def _time_bound(text: str) -> Fraction:
    try:
        bound = Fraction(text)
    except ZeroDivisionError:
        # argparse reports a ValueError as a usage error; `1/0` is one.
        raise ValueError("zero denominator") from None
    if bound < 0:
        raise ValueError("time bounds are non-negative")
    return bound


def _positive(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise ValueError("expected a positive integer")
    return n


def _use_color() -> bool:
    env = os.environ.get("DE_FIXPOINT_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str, color: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if color else text


def _green(text: str, color: bool) -> str:
    return _paint(text, "32", color)


def _red(text: str, color: bool) -> str:
    return _paint(text, "31", color)


def _read_model(path: str):
    """The model tree in the file at ``path``; an unreadable file, or one
    that is not UTF-8 text, is an EngineError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise EngineError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise EngineError(f"cannot read {path}: not UTF-8 text (byte {err.start})") from err
    return parse_model(text)


def _state_line(state: SystemState) -> str:
    """The time, microstep and machine locations of a state, machines by path."""
    network, locations = state.network, state.locations
    locs = ", ".join(
        f"{path}={locations[i]}" for i, path in network.sorted_fsm_paths if locations[i] is not None
    )
    line = f"t={ticks_text(state.now, network.timebase)} m={state.microstep_of_instant}"
    return f"{line}  [{locs}]" if locs else line


# Subcommands. ------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    state = initialize(_read_model(args.model))
    trace = simulate(
        state,
        time_bound=args.until,
        max_steps=args.max_steps,
        bottom_as_absent=args.bottom_as_absent,
    )
    if args.format == "json":
        print(trace_json_text(trace))
        return 0
    color = _use_color()
    lines = [trace_step_text(step) for step in trace.steps]
    if trace.truncated:
        lines.append(_red(f"stopped: step limit ({args.max_steps}) reached", color))
    elif not trace.final.entries:
        lines.append(_green("stopped: event queue exhausted", color))
    else:
        lines.append(_green(f"stopped: time bound {args.until} reached", color))
    lines.append(f"final: {_state_line(trace.final)}")
    # One write for the whole trace, as for a witness.
    print("\n".join(lines))
    return 0


def _cmd_search(args) -> int:
    state = initialize(_read_model(args.model))
    prop = parse_prop(args.prop)
    prop_holds(state, prop)  # a bad name is an error before any exploring
    graph = build_state_graph(state, time_bound=args.until, max_states=args.max_states)
    hit = search(graph, prop)
    color = _use_color()
    if hit is None:
        print(_red(f"not found ({len(graph.nodes)} states explored)", color))
        return 1
    print(_green(f"found at step {hit.node_id}:", color), _state_line(hit.state))
    return 0


def _cmd_check(args) -> int:
    state = initialize(_read_model(args.model))
    formula = parse_formula(args.formula)
    graph = build_state_graph(
        state,
        time_bound=args.until,
        max_states=args.max_states,
        bottom_as_absent=args.bottom_as_absent,
    )
    verdict = check_ltl(graph, formula)
    color = _use_color()
    if verdict.holds:
        print(_green(f"holds ({len(graph.nodes)} states explored)", color))
        return 0
    witness = verdict.witness
    lines = [_red(f"fails ({len(graph.nodes)} states explored)", color), "counterexample prefix:"]
    lines += [f"  [{node_id}] {_state_line(st)}" for node_id, st in zip(witness.prefix_ids, witness.prefix)]
    lines.append("repeating cycle:")
    lines += [f"  [{node_id}] {_state_line(st)}" for node_id, st in zip(witness.cycle_ids, witness.cycle)]
    # One write for the whole witness, which can run to hundreds of lines.
    print("\n".join(lines))
    return 1


def _cmd_dump(args) -> int:
    sys.stdout.write(print_model(_read_model(args.model)))
    return 0


# Argument wiring. ---------------------------------------------------------------


def _add_bound_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--until",
        type=_time_bound,
        default=None,
        metavar="T",
        help="explore only up to this time (rational or decimal)",
    )
    group.add_argument(
        "--unbounded",
        action="store_true",
        help="explore the full (lasso-shaped) state space; the default",
    )
    sub.add_argument(
        "--max-states",
        type=_positive,
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help=f"abort after this many states (default {DEFAULT_MAX_STATES})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="de-fixpoint",
        description="Simulate and model-check discrete-event actor models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a model and print its trace")
    sim.add_argument("model", help="model file")
    sim.add_argument(
        "--until",
        type=_time_bound,
        required=True,
        metavar="T",
        help="simulate up to this time (rational or decimal)",
    )
    sim.add_argument(
        "--max-steps",
        type=_positive,
        default=DEFAULT_MAX_STEPS,
        metavar="N",
        help=f"stop after this many steps (default {DEFAULT_MAX_STEPS})",
    )
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.add_argument(
        "--bottom-as-absent",
        action="store_true",
        help="treat unresolved ports as absent instead of failing",
    )
    sim.set_defaults(func=_cmd_simulate)

    sea = sub.add_parser("search", help="search reachable states for a proposition")
    sea.add_argument("model", help="model file")
    sea.add_argument("--prop", required=True, help="proposition, e.g. \"'Top | 'x = 1\"")
    _add_bound_flags(sea)
    sea.set_defaults(func=_cmd_search)

    chk = sub.add_parser("check", help="model-check a temporal formula")
    chk.add_argument("model", help="model file")
    chk.add_argument("--formula", required=True, help="formula, e.g. \"[] ~ ('Top | 'x = 1)\"")
    _add_bound_flags(chk)
    chk.add_argument(
        "--bottom-as-absent",
        action="store_true",
        help="treat unresolved ports as absent instead of failing",
    )
    chk.set_defaults(func=_cmd_check)

    dmp = sub.add_parser("dump", help="parse a model and print its canonical form")
    dmp.add_argument("model", help="model file")
    dmp.set_defaults(func=_cmd_dump)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process uses.

    ``parse_args`` keeps nothing from one call to the next (each call
    fills a fresh namespace), so building the parser once is safe.
    """
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    color = _use_color() if sys.stderr.isatty() else False
    try:
        return args.func(args)
    except ParseError as err:
        print(_red(f"syntax error: {err}", color), file=sys.stderr)
        return 2
    except ValidationError as err:
        print(_red(f"invalid model: {err}", color), file=sys.stderr)
        return 3
    except EngineError as err:
        print(_red(f"error: {err}", color), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # A downstream consumer (e.g. `... | head`) closed the pipe; stop
        # quietly the way shell tools do.  Point stdout at /dev/null so the
        # interpreter's exit-time flush doesn't raise again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 141  # 128 + SIGPIPE
    except Exception as err:  # noqa: BLE001 - the last line of defence
        # Anything else is a bug (the checker's cross-checks raise
        # AssertionError).  That is not an answer, so it must not exit 1.
        log.debug("internal error", exc_info=True)
        detail = " ".join(str(err).split())
        print(_red(f"internal error: {type(err).__name__}: {detail}", color), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
