"""Spans and counters around the package's layer boundaries.

Nothing in ``src/`` is edited.  A :class:`Tracer` replaces the module
attributes that callers look up (``executor.compute_fixpoint``,
``graph.step``, ``checker._replay``, ``SystemState.__hash__``, ...) with
timing wrappers, and puts the originals back on :meth:`Tracer.uninstall`.
Only the traced passes run with the wrappers installed, so end-to-end
numbers never carry them.

A span has a name, a start, an end, a parent and a request id.  Spans are
kept in memory and written out at the end of the run.  High-frequency
leaf calls (state hashing and equality, event-queue operations,
propositions) are timed and counted but not kept as span records, so the
span list stays small; their time still counts as child time of the
enclosing span.  Self time is a span's duration minus the time its child
spans cover.

The package is single-threaded and nothing in it waits (no I/O, locks or
queues between threads), so no layer has a wait time to report.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from de_fixpoint import checker, cli, executor, fire, formula_parser, graph, parser, postfire
from de_fixpoint.buchi import BuchiAutomaton
from de_fixpoint.events import EventQueue
from de_fixpoint.state import SystemState


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, request id)
        self.totals = defaultdict(float)  # span name -> inclusive seconds
        self.selfs = defaultdict(float)  # span name -> self seconds
        self.calls = Counter()  # span name -> calls
        self.counts = Counter()  # named counters
        self.active = Counter()  # span name -> open spans of that name
        self.request = None
        self._stack = []  # [span id, child seconds] of open spans
        self._next_id = 0
        self._saved = []
        self._request_counts = Counter()

    # Wrapping. ------------------------------------------------------------

    def _wrap(self, fn, name, record, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                took = end - start
                tracer.totals[name] += took
                tracer.selfs[name] += took - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += took
                if record:
                    tracer.spans.append((sid, name, start, end, parent, tracer.request))
            if hook is not None:
                hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, record, hook in _PROBES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, record, hook))
        for owner, attr, counter in _COUNTERS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count_only(original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # Requests. ------------------------------------------------------------

    def begin_request(self, rid):
        self.request = rid
        self._request_counts = Counter(
            {k: self.counts[k] for k in ("graph.steps", "checker.replay_steps")}
        )

    def end_request(self):
        graph_steps = self.counts["graph.steps"] - self._request_counts["graph.steps"]
        replay = self.counts["checker.replay_steps"] - self._request_counts["checker.replay_steps"]
        if replay:
            # Only requests that replayed a witness enter the replay ratio.
            self.counts["replayed.graph_steps"] += graph_steps
            self.counts["replayed.replay_steps"] += replay
        self.request = None

    def dump(self):
        """Span records and per-name totals, ready for json.dump."""
        return {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "totals": {
                name: {"calls": self.calls[name], "total_s": self.totals[name], "self_s": self.selfs[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }


# Hooks read counts off return values. ------------------------------------


def _step_kind(tracer, result):
    tracer.counts["executor." + type(result[1]).__name__.lower()] += 1


def _graph_step(tracer, result):
    _step_kind(tracer, result)
    tracer.counts["graph.steps"] += 1


def _replay_step(tracer, result):
    _step_kind(tracer, result)
    tracer.counts["checker.replay_steps"] += 1


def _fixpoint(tracer, result):
    tracer.counts["fire.rule_applications"] += result.applications
    tracer.counts["fire.stalled_ports"] += len(result.stalled_ports)


def _postfire(tracer, result):
    tracer.counts["postfire.events_scheduled"] += len(result[1])


def _pop_ready(tracer, result):
    tracer.counts["events.events_delivered"] += len(result[0])


def _hash(tracer, result):
    if tracer.active["graph.build_state_graph"]:
        tracer.counts["graph.hash_calls"] += 1


def _graph_built(tracer, result):
    tracer.counts["graph.states_interned"] += len(result.nodes)
    tracer.counts["graph.stem_len"] += result.cycle_entry()
    tracer.counts["graph.cycle_len"] += len(result.nodes) - result.cycle_entry()


def _automaton(tracer, result):
    tracer.counts["buchi.automaton_states"] += len(result.states)


def _verdict(tracer, result):
    if result.witness is not None:
        tracer.counts["checker.witness_len"] += len(result.witness.prefix) + len(result.witness.cycle)


# (owner, attribute, span name, keep span records, hook).  Names imported
# with `from .x import y` are separate bindings, so every caller's module
# is wrapped on its own.
_PROBES = [
    (cli, "main", "cli.main", True, None),
    (cli, "parse_model", "parser.parse_model", True, None),
    (parser, "parse_model", "parser.parse_model", True, None),
    (cli, "parse_formula", "formula_parser.parse", True, None),
    (cli, "parse_prop", "formula_parser.parse", True, None),
    (formula_parser, "parse_formula", "formula_parser.parse", True, None),
    (formula_parser, "parse_prop", "formula_parser.parse", True, None),
    (cli, "initialize", "postfire.initialize", True, None),
    (postfire, "initialize", "postfire.initialize", True, None),
    (cli, "simulate", "executor.simulate", True, None),
    (executor, "simulate", "executor.simulate", True, None),
    (cli, "trace_json", "executor.render", True, None),
    (cli, "trace_step_text", "executor.render", False, None),
    (cli, "build_state_graph", "graph.build_state_graph", True, _graph_built),
    (graph, "build_state_graph", "graph.build_state_graph", True, _graph_built),
    (cli, "search", "graph.search", True, None),
    (graph, "search", "graph.search", True, None),
    (cli, "check_ltl", "checker.check_ltl", True, _verdict),
    (checker, "check_ltl", "checker.check_ltl", True, _verdict),
    (executor, "step", "executor.step", True, _step_kind),
    (graph, "step", "executor.step", True, _graph_step),
    (checker, "step", "executor.step", True, _replay_step),
    (executor, "clear_ports", "fire.clear_ports", True, None),
    (executor, "deliver_events", "fire.deliver_events", True, None),
    (executor, "compute_fixpoint", "fire.compute_fixpoint", True, _fixpoint),
    (executor, "postfire", "postfire.postfire", True, _postfire),
    (executor, "commit_requests", "postfire.commit_requests", True, None),
    (executor, "collect_variables", "state.collect_variables", False, None),
    (fire, "map_ports", "model.map_ports", False, None),
    (fire, "build_rules", "fire.build_rules", True, None),
    (EventQueue, "add", "events.queue", False, None),
    (EventQueue, "advance_time", "events.queue", False, None),
    (EventQueue, "advance_microstep", "events.queue", False, None),
    (EventQueue, "pop_ready", "events.queue", False, _pop_ready),
    (SystemState, "__hash__", "state.hash", False, _hash),
    (SystemState, "__eq__", "state.eq", False, None),
    (graph, "prop_holds", "props.prop_holds", False, None),
    (checker, "prop_holds", "props.prop_holds", False, None),
    (checker, "desugar", "formula.desugar", True, None),
    (checker, "ltl_to_buchi", "buchi.ltl_to_buchi", True, _automaton),
    (checker, "_find_accepting_lasso", "checker.ndfs", True, None),
    (checker, "eval_on_lasso", "checker.eval_on_lasso", True, None),
    (checker, "_replay", "checker.replay", True, None),
]

# Called too often to time without drowning the caller: counted only.
_COUNTERS = [
    (BuchiAutomaton, "guard_holds", "buchi.guard_checks"),
]


def probed_attributes():
    """Every (owner, attribute) a tracer replaces, for checking they are restored."""
    return [(owner, attr) for owner, attr, *_ in _PROBES] + [
        (owner, attr) for owner, attr, _ in _COUNTERS
    ]


# Per-layer metrics, per traced pass. ---------------------------------------

_TIMES = {
    "parser.parse_model_s": "parser.parse_model",
    "formula_parser.parse_s": "formula_parser.parse",
    "postfire.initialize_s": "postfire.initialize",
    "model.map_ports_s": "model.map_ports",
    "fire.build_rules_s": "fire.build_rules",
    "fire.clear_ports_s": "fire.clear_ports",
    "fire.deliver_events_s": "fire.deliver_events",
    "fire.compute_fixpoint_s": "fire.compute_fixpoint",
    "postfire.postfire_s": "postfire.postfire",
    "postfire.commit_requests_s": "postfire.commit_requests",
    "events.queue_s": "events.queue",
    "executor.step_s": "executor.step",
    "executor.simulate_s": "executor.simulate",
    "state.collect_variables_s": "state.collect_variables",
    "executor.render_s": "executor.render",
    "state.hash_s": "state.hash",
    "graph.build_state_graph_s": "graph.build_state_graph",
    "graph.search_s": "graph.search",
    "props.prop_holds_s": "props.prop_holds",
    "formula.desugar_s": "formula.desugar",
    "buchi.ltl_to_buchi_s": "buchi.ltl_to_buchi",
    "checker.ndfs_s": "checker.ndfs",
    "checker.eval_on_lasso_s": "checker.eval_on_lasso",
    "checker.check_ltl_s": "checker.check_ltl",
    "state.eq_s": "state.eq",
    "checker.replay_s": "checker.replay",
}

_CALLS = {
    "model.map_ports_calls": "model.map_ports",
    "fire.build_rules_calls": "fire.build_rules",
    "state.hash_calls": "state.hash",
    "props.prop_holds_calls": "props.prop_holds",
    "state.eq_calls": "state.eq",
}

_COUNTS = [
    "fire.rule_applications",
    "fire.stalled_ports",
    "postfire.events_scheduled",
    "events.events_delivered",
    "executor.iteration",
    "executor.tick",
    "executor.microstep",
    "graph.states_interned",
    "graph.stem_len",
    "graph.cycle_len",
    "buchi.automaton_states",
    "buchi.guard_checks",
    "checker.replay_steps",
    "checker.witness_len",
]

_COUNT_NAMES = {
    "executor.iteration": "executor.iterations",
    "executor.tick": "executor.ticks",
    "executor.microstep": "executor.microsteps",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, log_records: int) -> dict:
    """{metric name: (value, unit)}, every total divided by the traced passes."""
    out = {}
    for metric, span in _TIMES.items():
        out[metric] = (tracer.totals[span] / passes, "s")
    out["cli.self_s"] = (tracer.selfs["cli.main"] / passes, "s")
    for metric, span in _CALLS.items():
        out[metric] = (tracer.calls[span] / passes, "count")
    for counter in _COUNTS:
        out[_COUNT_NAMES.get(counter, counter)] = (tracer.counts[counter] / passes, "count")
    steps = tracer.calls["executor.step"]
    out["executor.us_per_step"] = (_ratio(tracer.totals["executor.step"], steps) * 1e6, "us")
    out["graph.hash_calls_per_state"] = (
        _ratio(tracer.counts["graph.hash_calls"], tracer.counts["graph.states_interned"]),
        "ratio",
    )
    out["checker.replay_steps_per_graph_step"] = (
        _ratio(tracer.counts["replayed.replay_steps"], tracer.counts["replayed.graph_steps"]),
        "ratio",
    )
    out["log.records"] = (log_records / passes, "count")
    return out
