"""chshsim benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload sim-short --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

One client calls ``chshsim.cli.main(argv)`` in this process, one job after
another, each writing ``--out`` to a temporary file that is then checked.
A run plays round(seconds / cycle_s) whole cycles of the workload's job
list, so every run of a workload does the same work whatever the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the job
list untraced, replays its last cycle with spans recorded around the
package's public functions (wrapped from here; nothing under ``src/``
changes), runs one job per command under ``tracemalloc``, and prints the
per-layer metrics.  Spans are saved to ``.bench_out/``.
Every line before the last is for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracer as tr
from workloads import WORKLOADS, CheckFailed, Job, check, job_list, write_weights

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "chshsim"
RUN_SECONDS = 20
SETUP_SAMPLES = 9
#: perf_counter resolution allowance when checking span nesting.
RESOLUTION_S = 1e-6

SETUP_CODE = "import chshsim.cli; chshsim.cli.build_parser()"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    means: str


# Time bounds sit at the 0.25 maximum: on the 2-core reference sandbox the
# same job list runs up to 20% faster or slower from one run to the next,
# whatever the statistic, so tighter bounds would flag noise.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             f"median of {SETUP_SAMPLES} fresh interpreters, spread over the run, importing chshsim.cli "
             "and calling build_parser()"),
    EndToEnd("work_per_s", "1/s", "higher", 0.25,
             "work units (see workload) per second of job wall time"),
    EndToEnd("job_s.p50", "s", "lower", 0.25, "median job latency"),
    EndToEnd("job_s.tail", "s", "lower", 0.25,
             "latency at the highest percentile with at least ten jobs beyond it"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "ru_maxrss of the benchmark process"),
)

# Span names.  Playout spans are told apart by their parent: under the
# Monte Carlo engine they are the general-engine fallback.
MAIN = "cli.main"
ESTIMATE = "montecarlo.estimate"
ENGINE = "montecarlo.engine"
SINK = "montecarlo.sink"
BATCH_X = "montecarlo.batch_x"
BATCH_STATS = "stats.batch_statistics"
EXACT = "enumerator.exact"
NOSIG = "enumerator.nosig"
PLAYOUT = "enumerator.playout"
COLLECTIVE = "enumerator.collective_playout"
RESPOND = "strategies.respond"


def _counting(tracer: tr.Tracer, counters: dict[str, Callable]):
    """Span callback adding ``value(args, kwargs, result)`` to each counter.

    A value that is not an int (the boundary's signature or result changed)
    marks the counter missing instead of failing the job.
    """

    def callback(args, kwargs, result):
        for key, value in counters.items():
            amount = value(args, kwargs, result)
            if isinstance(amount, int):
                tracer.count(key, amount)
            else:
                tracer.missing.add(key)

    return callback


def _plan_rounds(args, kwargs, item):
    return getattr(args[0], "n", None) if args else None


def _enumerated(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return 4 ** n if isinstance(n, int) else None


def _nosig_checked(args, kwargs, result):
    return getattr(result, "sequences_checked", None)


def _estimate_with_sink(tracer: tr.Tracer, fn):
    """Trace ``estimate`` and, inside it, every call of the ``batch_sink`` it receives."""
    signature = inspect.signature(fn)
    if "batch_sink" not in signature.parameters:
        tracer.missing.add(SINK)
        return tracer.wrap(fn, ESTIMATE)

    def with_traced_sink(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        sink = bound.arguments.get("batch_sink")
        if sink is not None:
            bound.arguments["batch_sink"] = tracer.wrap(sink, SINK)
        return fn(*bound.args, **bound.kwargs)

    return tracer.wrap(with_traced_sink, ESTIMATE)


BOUNDARIES = (
    tr.Boundary(MAIN, "chshsim.cli", "main"),
    tr.Boundary(ESTIMATE, "chshsim.montecarlo", "estimate", make=_estimate_with_sink),
    tr.Boundary(ENGINE, "chshsim.montecarlo", "iter_batch_counts",
                make=lambda t, fn: t.wrap_iter(fn, ENGINE, _counting(
                    t, {"engine.batches": lambda *_: 1, "engine.rounds": _plan_rounds}))),
    tr.Boundary(BATCH_X, "chshsim.montecarlo", "batch_x"),
    tr.Boundary(BATCH_STATS, "chshsim.stats", "batch_statistics"),
    tr.Boundary(EXACT, "chshsim.enumerator", "exact_expectations",
                make=lambda t, fn: t.wrap(fn, EXACT, _counting(t, {"exact.sequences": _enumerated}))),
    tr.Boundary(NOSIG, "chshsim.enumerator", "no_signaling_check",
                make=lambda t, fn: t.wrap(fn, NOSIG, _counting(t, {"nosig.sequences": _nosig_checked}))),
    tr.Boundary(PLAYOUT, "chshsim.enumerator", "playout"),
    tr.Boundary(COLLECTIVE, "chshsim.enumerator", "collective_playout"),
    tr.MethodBoundary(RESPOND, "chshsim.strategies", "SequentialStrategy", ("respond_alice", "respond_bob")),
)


@dataclass
class Trace:
    """What a traced run measured, for the per-layer metric formulas."""

    spans: tr.SpanSummary
    tracer: tr.Tracer
    peak_alloc_mb: dict[str, float]
    overhead_s: float

    def counter(self, key: str) -> float:
        return self.tracer.counters.get(key, 0)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """``num / den * scale``; 0 when the layer did no work in this workload."""
    return num / den * scale if den else 0.0


def _general(t: Trace, field: str) -> float:
    return sum(getattr(t.spans, field)(name, parents=[ENGINE]) for name in (PLAYOUT, COLLECTIVE))


def _kernel_share(t: Trace) -> float:
    batches = t.counter("engine.batches")
    return 1.0 - _general(t, "calls") / batches if batches else 0.0


@dataclass(frozen=True)
class PerLayer:
    """A per-layer metric; it reads null when a span or counter in ``needs`` is missing."""

    name: str
    unit: str
    better: str
    moves: str
    needs: tuple[str, ...]
    value: Callable[[Trace], float]


PER_LAYER = (
    PerLayer("montecarlo.engine.busy_s", "s", "lower", "work_per_s on sim-short and sim-long", (ENGINE,),
             lambda t: t.spans.busy(ENGINE)),
    PerLayer("montecarlo.engine.batches", "count", "higher", "work count, fixed by the job list", (ENGINE,),
             lambda t: t.counter("engine.batches")),
    PerLayer("montecarlo.engine.rounds", "count", "higher", "work count, fixed by the job list",
             (ENGINE, "engine.rounds"), lambda t: t.counter("engine.rounds")),
    PerLayer("montecarlo.engine.us_per_batch", "us", "lower",
             "work_per_s and job_s.* on sim-short: per-batch stream set-up and tally", (ENGINE,),
             lambda t: _ratio(t.spans.busy(ENGINE), t.counter("engine.batches"), 1e6)),
    PerLayer("montecarlo.engine.ns_per_round", "ns", "lower",
             "work_per_s on sim-long: the guessing kernel's per-round loop", (ENGINE, "engine.rounds"),
             lambda t: _ratio(t.spans.busy(ENGINE), t.counter("engine.rounds"), 1e9)),
    PerLayer("montecarlo.aggregate.self_s", "s", "lower",
             "work_per_s on sim-short: per-batch Fraction work in estimate", (ESTIMATE, ENGINE, SINK),
             lambda t: t.spans.busy(ESTIMATE) - t.spans.busy(ENGINE, parents=[ESTIMATE])
             - t.spans.busy(SINK, parents=[ESTIMATE])),
    PerLayer("montecarlo.sink.busy_s", "s", "lower",
             "job_s.* on sim-short (per-batch CSV rows); no change on sim-long", (ESTIMATE, SINK),
             lambda t: t.spans.busy(SINK)),
    PerLayer("montecarlo.general.batches", "count", "lower", "kernel_share on sim-short",
             (ENGINE, PLAYOUT, COLLECTIVE), lambda t: _general(t, "calls")),
    PerLayer("montecarlo.general.busy_s", "s", "lower", "work_per_s on sim-short",
             (ENGINE, PLAYOUT, COLLECTIVE), lambda t: _general(t, "busy")),
    PerLayer("montecarlo.kernel_share", "ratio", "higher", "work_per_s on sim-short: the fallback rate",
             (ENGINE, PLAYOUT, COLLECTIVE),
             _kernel_share),
    PerLayer("montecarlo.batch_x.calls", "count", "lower", "work_per_s on sim-short", (BATCH_X,),
             lambda t: t.spans.calls(BATCH_X)),
    PerLayer("montecarlo.batch_x.busy_s", "s", "lower", "work_per_s on sim-short", (BATCH_X,),
             lambda t: t.spans.busy(BATCH_X)),
    PerLayer("montecarlo.peak_alloc_mb", "MB", "lower", "peak_rss_mb on sim-long: chunk arrays", (),
             lambda t: t.peak_alloc_mb.get("simulate", 0.0)),
    PerLayer("stats.batch_statistics.calls", "count", "lower", "work_per_s on sim-short: general-engine tally",
             (BATCH_STATS,), lambda t: t.spans.calls(BATCH_STATS)),
    PerLayer("stats.batch_statistics.busy_s", "s", "lower", "work_per_s on sim-short", (BATCH_STATS,),
             lambda t: t.spans.busy(BATCH_STATS)),
    PerLayer("enumerator.exact.busy_s", "s", "lower", "work_per_s on exact", (EXACT,),
             lambda t: t.spans.busy(EXACT)),
    PerLayer("enumerator.exact.sequences", "count", "higher", "work count, fixed by the job list",
             (EXACT, "exact.sequences"),
             lambda t: t.counter("exact.sequences")),
    PerLayer("enumerator.exact.self_s", "s", "lower", "work_per_s on exact: per-sequence tallying", (EXACT, PLAYOUT),
             lambda t: t.spans.self_time(EXACT)),
    PerLayer("enumerator.nosig.busy_s", "s", "lower", "work_per_s on exact", (NOSIG,),
             lambda t: t.spans.busy(NOSIG)),
    PerLayer("enumerator.nosig.sequences", "count", "higher", "work count, fixed by the job list",
             (NOSIG, "nosig.sequences"),
             lambda t: t.counter("nosig.sequences")),
    PerLayer("enumerator.nosig.playouts_per_sequence", "ratio", "lower", "work_per_s on exact (2n+1 today)",
             (NOSIG, PLAYOUT, "nosig.sequences"),
             lambda t: _ratio(t.spans.calls(PLAYOUT, parents=[NOSIG]), t.counter("nosig.sequences"))),
    PerLayer("enumerator.playout.calls", "count", "lower", "work_per_s on exact", (PLAYOUT, ENGINE),
             lambda t: t.spans.calls(PLAYOUT, not_parents=[ENGINE])),
    PerLayer("enumerator.playout.busy_s", "s", "lower", "work_per_s on exact", (PLAYOUT, ENGINE),
             lambda t: t.spans.busy(PLAYOUT, not_parents=[ENGINE])),
    PerLayer("enumerator.playout.self_s", "s", "lower", "work_per_s on exact: core views and Rounds",
             (PLAYOUT, ENGINE, RESPOND), lambda t: t.spans.self_time(PLAYOUT, not_parents=[ENGINE])),
    PerLayer("enumerator.peak_alloc_mb", "MB", "lower", "peak_rss_mb on exact", (),
             lambda t: max(t.peak_alloc_mb.get("enumerate", 0.0), t.peak_alloc_mb.get("nosig", 0.0))),
    PerLayer("strategies.respond.calls", "count", "lower", "work_per_s on exact", (RESPOND,),
             lambda t: t.spans.calls(RESPOND)),
    PerLayer("strategies.respond.busy_s", "s", "lower", "work_per_s on exact", (RESPOND,),
             lambda t: t.spans.busy(RESPOND)),
    PerLayer("strategies.respond.ns_per_call", "ns", "lower", "work_per_s on exact: the _ingest rescans",
             (RESPOND,), lambda t: _ratio(t.spans.busy(RESPOND), t.spans.calls(RESPOND), 1e9)),
    PerLayer("cli.main.calls", "count", "higher", "work count, fixed by the job list", (MAIN,),
             lambda t: t.spans.calls(MAIN)),
    PerLayer("cli.main.busy_s", "s", "lower", "work_per_s on every workload", (MAIN,),
             lambda t: t.spans.busy(MAIN)),
    PerLayer("cli.self_s", "s", "lower",
             "job_s.p50 on sim-short: parsing, payload, JSON/CSV emission, compare_tails", (MAIN,),
             lambda t: t.spans.self_time(MAIN)),
    PerLayer("trace.overhead_s", "s", "lower", "none: traced minus untraced job wall time", (),
             lambda t: t.overhead_s),
)


# --- running jobs ------------------------------------------------------------


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    failures: list[str] = field(default_factory=list)
    kept: tuple[bytes, bytes] | None = None
    setup_times: list[float] = field(default_factory=list)


def _outputs(job: Job, out: Path, batches_out: Path) -> tuple[bytes, bytes]:
    return out.read_bytes(), batches_out.read_bytes() if job.batches_out else b""


def run_job(cli, job: Job, out: Path, batches_out: Path) -> tuple[float, object]:
    """Call the CLI in-process; return (latency, exit code or the exception)."""
    for stale in (out, batches_out):  # a job that writes nothing must not pass on old output
        stale.unlink(missing_ok=True)
    argv = job.argv(out, batches_out)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception as exc:  # one broken job must not stop the run
        traceback.print_exc()
        rc = exc
    return time.perf_counter() - t0, rc


def run_pass(cli, jobs: list[Job], tmp: Path, keep: Job | None = None, setup_samples: int = 0) -> Pass:
    """Run and check every job; keep the outputs of ``keep``.

    With ``setup_samples``, that many fresh-interpreter set-ups are timed at
    evenly spaced points between jobs, so they sample the whole run.
    """
    out, batches_out = tmp / "out.json", tmp / "batches.csv"
    setup_at = {len(jobs) * i // setup_samples for i in range(setup_samples)}
    result = Pass()
    for i, job in enumerate(jobs):
        if i in setup_at:
            result.setup_times.append(time_setup())
        latency, rc = run_job(cli, job, out, batches_out)
        result.latencies.append(latency)
        try:
            result.work += check(job, rc, out, batches_out)
            if job is keep:
                result.kept = _outputs(job, out, batches_out)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            result.failures.append(f"{' '.join(job.args)}: {exc!r}")
    return result


def repeat_matches(cli, job: Job, kept, tmp: Path) -> bool:
    """Criterion 9: rerunning a job gives byte-identical outputs."""
    out, batches_out = tmp / "repeat.json", tmp / "repeat.csv"
    _, rc = run_job(cli, job, out, batches_out)
    return rc == 0 and kept is not None and _outputs(job, out, batches_out) == kept


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def peak_allocations(cli, jobs: list[Job], tmp: Path) -> tuple[dict[str, float], list[str]]:
    """Peak traced allocation (MB) per command, under ``tracemalloc``.

    One job per command is run: the largest n, ties going to the first
    strategy name, so the choice does not depend on the seed.  Returns the
    peaks and the failures.
    """
    chosen: dict[str, Job] = {}
    for job in sorted(jobs, key=lambda j: (-j.n, j.strategy, j.batches_out)):
        chosen.setdefault(job.command, job)
    out, batches_out = tmp / "alloc.json", tmp / "alloc.csv"
    peaks, failures = {}, []
    tracemalloc.start()
    try:
        for command, job in chosen.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, rc = run_job(cli, job, out, batches_out)
            peaks[command] = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            if rc != 0:
                failures.append(f"{' '.join(job.args)}: exit {rc!r} under tracemalloc")
    finally:
        tracemalloc.stop()
    return peaks, failures


# --- reporting -----------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 11)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def end_to_end_metrics(p: Pass) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_times),
        "work_per_s": p.work / sum(p.latencies),
        "job_s.p50": statistics.median(p.latencies),
        "job_s.tail": tail_latency(p.latencies)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(t: Trace) -> dict[str, float | None]:
    """Every per-layer metric; ``None`` where a boundary it needs no longer exists."""
    return {
        m.name: None if any(n in t.tracer.missing for n in m.needs) else m.value(t)
        for m in PER_LAYER
    }


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def report_end_to_end(plain: Pass) -> dict[str, tuple[str, float]]:
    values = end_to_end_metrics(plain)
    jobs = len(plain.latencies)
    pct, _ = tail_latency(plain.latencies)
    notes = {m.name: m.means for m in END_TO_END}
    notes["job_s.p50"] += f" over {jobs} jobs"
    notes["job_s.tail"] += f": p{pct:.1f} over {jobs} jobs"
    for m in END_TO_END:
        print(f"  {m.name:<14} {values[m.name]:>14.6g} {m.unit:<5} {notes[m.name]}")
    return {m.name: (m.unit, values[m.name]) for m in END_TO_END}


def report_layers(cli, workload, jobs: list[Job], cycles: int, plain: Pass, tmp: Path):
    """Traced replay of the last cycle plus the allocation pass.

    Returns the per-layer metrics, the jobs attempted, their failures and
    the number of badly nested spans.
    """
    last = len(jobs) - len(jobs) // cycles  # the last cycle is warm in both passes
    tracer = tr.Tracer()
    installed = tr.install(tracer, PACKAGE, BOUNDARIES)
    try:
        traced = run_pass(cli, jobs[last:], tmp)
    finally:
        installed.restore()
    peaks, alloc_failures = peak_allocations(cli, jobs, tmp)
    overhead = sum(traced.latencies) - sum(plain.latencies[last:])
    values = layer_metrics(Trace(tr.SpanSummary(tracer), tracer, peaks, overhead))
    violations = tr.nesting_violations(tracer, RESOLUTION_S)
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    tracer.save(spans_dir / f"spans-{workload.name}.npz")
    for m in PER_LAYER:
        value = values[m.name]
        shown = "null" if value is None else f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {m.name:<40} {shown:>12} {m.unit:<5} moves {m.moves}")
    print(f"  {len(tracer)} spans saved to {spans_dir.name}/; nesting violations: {violations}; "
          f"missing boundaries: {sorted(tracer.missing) or 'none'}")
    metrics = {m.name: (m.unit, values[m.name]) for m in PER_LAYER}
    return metrics, len(jobs) - last + len(peaks), traced.failures + alloc_failures, violations


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chshsim.cli as cli

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cycles = max(1, round(args.seconds / workload.cycle_s))
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp_name:
        tmp = Path(tmp_name)
        weights = tmp / "weights.csv"
        write_weights(weights, rng)
        jobs = job_list(workload, rng, weights, cycles)
        keep = jobs[rng.randrange(len(jobs))]

        if args.trace == 0:
            time_setup()  # compiles bytecode and fills the page cache; not counted
        plain = run_pass(cli, jobs, tmp, keep, SETUP_SAMPLES if args.trace == 0 else 0)
        failures = list(plain.failures)
        attempted = len(jobs) + 1
        if not repeat_matches(cli, keep, plain.kept, tmp):
            failures.append(f"{' '.join(keep.args)}: rerun is not byte-identical")

        print(f"workload {workload.name}  seed {args.seed}  {cycles} cycles, {len(jobs)} jobs, "
              f"one client, closed loop; work unit: {workload.work_unit}")
        violations = 0
        if args.trace == 0:
            metrics = report_end_to_end(plain)
        else:
            metrics, traced_jobs, traced_failures, violations = report_layers(cli, workload, jobs, cycles, plain, tmp)
            attempted += traced_jobs
            failures += traced_failures
        print(f"  fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} jobs, rerun included)")
        for failure in failures[:5]:
            print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and violations == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
