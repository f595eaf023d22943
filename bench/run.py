"""The benchmark: one command, two workloads, every output checked.

    python3 bench/run.py --workload model_check --seed 1 --seconds 50 --trace 0

runs one workload: it generates the seeded inputs, checks that every
generated model validates and round-trips through print_model /
parse_model, times set-up, then sends the workload's fixed request list
again and again for ``--seconds`` (one client, closed loop, one thread,
this process), and checks every output.  ``--workload all`` runs the
two workloads one after another, each in its own process so that
peak memory is per workload, and prints them side by side.

The end-to-end metrics, measured with tracing off:

* wall_s: seconds to finish the fixed request list once, summing each
  request's median latency over the run's untraced passes;
* request_p50_ms, request_tail_ms: median and tail latency over every
  request of every untraced pass; the tail is the highest of p99, p95,
  p90, p80, p75 or p50 that leaves ten samples above it in the
  workload's minimum number of passes;
* setup_s: median time from model text to initial state (parse_model +
  initialize) for all the workload's distinct models, repeated before
  every pass;
* peak_rss_mb: peak resident memory after the passes, before the oracle
  runs;
* failed_frac: printed in the report; the JSON result carries it as
  ``failed`` over ``attempted``, since a metric that reads 0 cannot have
  a relative bound.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead.  A traced run alternates untraced and traced passes: the
layer wrappers are installed only for the traced ones, their output
digests must equal the untraced ones, and the difference in pass time
is reported as the tracing overhead.  Lines before the last one are a
human-readable report and the run's metadata; spans, totals and
per-request output digests and latencies go to ``.bench_out/`` in the checkout.

Run it from the root of a source checkout: it imports ``src/de_fixpoint``
from there and refuses to run against anything else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("simulate_trace", "model_check")
SETUP_PER_PASS = 3
TIMEOUT_FACTOR = 5  # --workload all: a child may take this many times --seconds


def _import_package():
    """Import de_fixpoint from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "de_fixpoint" / "__init__.py").is_file():
        raise SystemExit(f"bench: no de_fixpoint sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import de_fixpoint

    imported = Path(de_fixpoint.__file__).resolve()
    if src.resolve() not in imported.parents:
        raise SystemExit(f"bench: imported {imported}, not the checkout's sources")
    return imported


@dataclass
class Outcome:
    exit_code: int = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    error: str = None


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = 0

    def emit(self, record):
        self.records += 1


def _route_logs() -> _CountingHandler:
    """Count de_fixpoint log records instead of writing them to a terminal."""
    handler = _CountingHandler()
    logger = logging.getLogger("de_fixpoint")
    logger.addHandler(handler)
    logger.propagate = False
    # cli.main calls logging.basicConfig, which is a no-op once the root
    # logger has a handler; this keeps it from binding to captured stderr.
    logging.getLogger().addHandler(logging.NullHandler())
    return handler


# Inputs. --------------------------------------------------------------------


def _prepare(workload, workdir: Path):
    """Check every model, write it out, and return {model key: file path}."""
    from de_fixpoint import normalize, parse_model, print_model, validate

    paths = {}
    for key, text in workload.models.items():
        tree = parse_model(text)
        validate(normalize(tree))
        canonical = print_model(tree)
        if parse_model(canonical) != tree or print_model(parse_model(canonical)) != canonical:
            raise SystemExit(f"bench: model {key} does not round-trip through print_model")
        if key in workload.facts:  # generated: the program gets the canonical text
            workload.models[key] = canonical
        path = workdir / f"{key}.model"
        path.write_text(workload.models[key], encoding="utf-8")
        paths[key] = str(path)
    return paths


def _setup_once(workload):
    """Model text to initial state for every distinct model, via module lookups."""
    from de_fixpoint import parser, postfire

    return {key: postfire.initialize(parser.parse_model(text)) for key, text in workload.models.items()}


# Requests. ------------------------------------------------------------------


def _execute(req, paths, initial, graphs):
    from de_fixpoint import checker, cli, formula_parser, graph

    if req.kind == "cli":
        argv = list(req.argv)
        argv[1] = paths[req.model]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return Outcome(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue())
    if req.kind == "graph":
        graphs[req.model] = graph.build_state_graph(initial[req.model])
        return Outcome(result=graphs[req.model])
    if req.kind == "check":
        verdict = checker.check_ltl(graphs[req.model], formula_parser.parse_formula(req.text))
        return Outcome(result=verdict)
    if req.kind == "search":
        prop = formula_parser.parse_prop(req.text)
        explored = graphs[req.model]
        if req.until is not None:
            explored = graph.build_state_graph(initial[req.model], time_bound=req.until)
        return Outcome(result=(graph.search(explored, prop), explored))
    raise ValueError(f"unknown request kind {req.kind!r}")


def _run_pass(workload, paths, initial, tracer=None):
    latencies, outcomes = [], []
    graphs = {}
    for req in workload.requests:
        if tracer is not None:
            tracer.begin_request(req.rid)
        start = time.perf_counter()
        try:
            outcome = _execute(req, paths, initial, graphs)
        except Exception as err:  # an unexpected exception is a failed request
            outcome = Outcome(error=f"{type(err).__name__}: {err}")
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_request()
        outcomes.append(outcome)
    return latencies, outcomes


def _rendered(req, outcome) -> str:
    """The bytes a request's digest covers: stdout, or a library result as text."""
    from de_fixpoint import collect_variables, fsm_locations

    if outcome.error is not None:
        return "error: " + outcome.error
    if req.kind == "cli":
        return outcome.stdout
    if req.kind == "graph":
        graph = outcome.result
        lines = [f"bounded={graph.bounded} cycle_entry={graph.cycle_entry()}"]
        for i, state in enumerate(graph.nodes):
            lines.append(
                f"{i} -> {graph.succ[i]} {graph.kinds[i].json()} t={state.elapsed} "
                f"m={state.microstep_of_instant} {sorted(fsm_locations(state).items())} "
                f"{sorted((p, sorted(v.items())) for p, v in collect_variables(state).items())} "
                f"{state.queue.summary()}"
            )
        return "\n".join(lines) + "\n"
    if req.kind == "check":
        witness = outcome.result.witness
        if witness is None:
            return f"holds={outcome.result.holds}\n"
        return f"holds={outcome.result.holds} prefix={witness.prefix_ids} cycle={witness.cycle_ids}\n"
    hit, explored = outcome.result
    return f"hit={None if hit is None else hit.node_id} explored={len(explored.nodes)}\n"


def _digests(workload, outcomes):
    return [
        hashlib.sha256(_rendered(req, out).encode("utf-8")).hexdigest()
        for req, out in zip(workload.requests, outcomes)
    ]


# Statistics. ----------------------------------------------------------------


def _rank(n: int, p: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, -(-n * p // 100))


def _commit() -> str:
    """HEAD of the checkout, marked when src/ differs from it."""
    git = ["git", "-C", str(ROOT)]
    try:
        head = subprocess.run(
            git + ["rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True, timeout=30
        )
        lines = head.stdout.split()
        if head.returncode != 0 or Path(lines[0]).resolve() != ROOT:
            return "unknown (not a git checkout)"
        dirty = subprocess.run(
            git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return lines[1] + ("+dirty src" if dirty.stdout.strip() else "")


def _metadata(args, imported):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "de_fixpoint": str(imported),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "clients": 1,
        "loop": "closed",
    }


# One workload in this process. ----------------------------------------------


@dataclass
class Pass:
    traced: bool
    latencies: list  # seconds per request, in request-list order
    digests: list  # sha256 per request, in request-list order


@dataclass
class Measurement:
    passes: list
    setup_reps: list  # seconds per set-up of every distinct model
    first: list  # outcomes of the first untraced pass, for the oracle
    initial: dict  # model key -> initial state
    traced_logs: int  # log records during traced passes

    def of(self, traced: bool):
        return [p for p in self.passes if p.traced == traced]


def _measure(workload, paths, seconds, tracer, logs) -> Measurement:
    """The closed loop: passes until ``seconds`` are up and enough ran.

    Set-up repeats before every untraced pass, so its samples spread over
    the whole run like the passes' do.  With a tracer, traced and
    untraced passes alternate.
    """
    m = Measurement([], [], None, None, 0)
    started = time.perf_counter()
    while True:
        plain, traced = len(m.of(False)), len(m.of(True))
        done = plain >= workload.min_passes and (tracer is None or traced == plain)
        if done and time.perf_counter() - started >= seconds:
            return m
        if tracer is not None and traced < plain:
            mark = logs.records
            tracer.install()
            try:
                _setup_once(workload)
                latencies, outcomes = _run_pass(workload, paths, m.initial, tracer)
            finally:
                tracer.uninstall()
            m.traced_logs += logs.records - mark
            m.passes.append(Pass(True, latencies, _digests(workload, outcomes)))
            continue
        for _ in range(SETUP_PER_PASS):
            start = time.perf_counter()
            m.initial = _setup_once(workload)
            m.setup_reps.append(time.perf_counter() - start)
        latencies, outcomes = _run_pass(workload, paths, m.initial)
        m.passes.append(Pass(False, latencies, _digests(workload, outcomes)))
        if m.first is None:
            m.first = outcomes


def _check(workload, m: Measurement, oracle):
    """(failed request count, problems): the oracle checks the first pass,
    and a later pass is right only when its digest equals the first's."""
    from oracle import BenchmarkInputError, OracleFailure

    failed = 0
    problems = []
    reference = m.of(False)[0].digests
    for i, (req, outcome) in enumerate(zip(workload.requests, m.first)):
        try:
            oracle.check(req, outcome)
        except OracleFailure as err:
            problems.append(f"{req.rid}: {err}")
            failed += len(m.passes)
            continue
        except BenchmarkInputError as err:
            raise SystemExit(f"bench: {err}")
        differing = sum(1 for p in m.passes if p.digests[i] != reference[i])
        if differing:
            problems.append(f"{req.rid}: output differs from the first pass in {differing} passes")
            failed += differing
    if not _wrappers_removed():
        problems.append("layer wrappers left installed after the traced passes")
    return failed, problems


def _wall(passes) -> float:
    """Seconds to finish the request list once: each request's median
    latency over the passes, summed.

    On a shared host, other tenants change the speed of a run from one
    stretch to the next; fast stretches are short and rare.  The fastest
    pass depends on catching one, so it moves between runs of the same
    code by a quarter or more; per-request medians move by a few percent.
    """
    return sum(statistics.median(samples) for samples in zip(*(p.latencies for p in passes)))


def run_workload(args, imported) -> int:
    import workloads
    from oracle import Oracle

    os.environ["DE_FIXPOINT_COLOR"] = "0"
    logs = _route_logs()
    meta = _metadata(args, imported)
    fixtures = {
        name: (ROOT / "models" / f"{name}.model").read_text(encoding="utf-8")
        for name in workloads.FIXTURES
    }
    workload = workloads.make(args.workload, args.seed, fixtures)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    try:
        paths = _prepare(workload, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        m = _measure(workload, paths, args.seconds, tracer, logs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced_logs = logs.records - m.traced_logs
        oracle = Oracle(ROOT, workloads.FIXTURE_STATES, m.initial, workload.facts)
        failed, problems = _check(workload, m, oracle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(m.passes) * len(workload.requests)
    plain = m.of(False)
    reference = plain[0].digests
    per_request = {
        req.rid: {"sha256": digest, "median_ms": statistics.median(samples) * 1e3}
        for req, digest, samples in zip(workload.requests, reference, zip(*(p.latencies for p in plain)))
    }
    (out_dir / f"{args.workload}-seed{args.seed}-requests.json").write_text(
        json.dumps({"meta": meta, "requests": per_request}, indent=1)
    )
    latencies = [x for p in plain for x in p.latencies]
    tail = workload.tail_percentile
    rank = _rank(len(latencies), tail)
    end_to_end = {
        "wall_s": (_wall(plain), "s"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "request_tail_ms": (sorted(latencies)[rank - 1] * 1e3, "ms"),
        "setup_s": (statistics.median(m.setup_reps), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"meta {json.dumps(meta)}")
    print(
        f"{args.workload}: {len(workload.requests)} requests per pass, {len(plain)} untraced and "
        f"{len(m.passes) - len(plain)} traced passes, {len(workload.models)} models, output digest "
        f"{hashlib.sha256(''.join(reference).encode()).hexdigest()[:16]}"
    )
    print(f"  wall_s           {end_to_end['wall_s'][0]:10.4f} s   per-request medians over {len(plain)} passes")
    print(f"  request_p50_ms   {end_to_end['request_p50_ms'][0]:10.3f} ms  n={len(latencies)}")
    print(
        f"  request_tail_ms  {end_to_end['request_tail_ms'][0]:10.3f} ms  p{tail}, "
        f"n={len(latencies)}, {len(latencies) - rank} above"
    )
    print(f"  setup_s          {end_to_end['setup_s'][0]:10.5f} s   median of {len(m.setup_reps)} set-ups")
    print(f"  peak_rss_mb      {peak_rss_mb:10.1f} MB")
    print(f"  failed_frac      {failed / attempted:10.4f}     {failed} of {attempted} requests")
    print(f"  log records      {untraced_logs} in untraced passes")
    for problem in problems:
        print(f"  FAILED {problem}")

    metrics = end_to_end
    if tracer is not None:
        from spans import layer_metrics

        traced = m.of(True)
        metrics = layer_metrics(tracer, len(traced), m.traced_logs)
        plain_wall, traced_wall = _wall(plain), _wall(traced)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
        print(f"  tracing overhead {traced_wall - plain_wall:.4f} s per pass ({(traced_wall - plain_wall) / plain_wall:.1%})")
        print("  no wait-time metrics: the package is single-threaded and nothing in it waits")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:40s} {value:14.6f} {unit}")
        trace_file = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps({"meta": meta, **tracer.dump()}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _wrappers_removed() -> bool:
    from spans import probed_attributes

    return all(
        not hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in probed_attributes()
    )


# All workloads, one process each. --------------------------------------------


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_FACTOR * args.seconds + 120
        )
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    imported = _import_package()
    return run_workload(args, imported)


if __name__ == "__main__":
    sys.exit(main())
