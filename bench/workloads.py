"""Benchmark workloads: job lists generated from a seed, and per-job output checks.

A job is one ``chshsim`` CLI invocation.  A workload's cycle is a fixed
multiset of jobs; the seed only shuffles the cycle and picks the Monte Carlo
seeds, the no-signaling tape and the row order of the weights file.  So
every seed asks for the same amount of work, and the work per run does not
depend on the seed.

No check pins a seeded value: simulated means are compared with exact
expectations in units of the reported standard error, so a change of
stream format cannot break them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

#: Standard errors by which a simulated mean may miss E(Y_N).  Two-sided
#: normal tail ~2e-9 per job, so false alarms stay negligible over the
#: thousands of checked jobs of a full benchmark campaign.
MEAN_Y_SE = 6

#: Wilson half-widths by which a tail frequency may exceed the f bound.
TAIL_WILSON_HALF_WIDTHS = 4

#: Exact (E(Y_N), E(X_N | defined), P(X_N undefined)) for the enumerate jobs.
#: From exhaustive enumeration; 1 - P(undefined) = (4^n - 4*3^n + 6*2^n - 4) / 4^n
#: is the chance that all four pairs occur, and the constant assignment has
#: X_N = 3 whenever it is defined.
EXACT = {
    ("constant-plus", 6): ("3", "3", "317/512"),
    ("constant-plus", 7): ("3", "3", "499/1024"),
    ("guessing", 6): ("3", "275/78", "317/512"),
    ("guessing", 7): ("3", "347/100", "499/1024"),
    ("model101", 6): ("3", "3", "317/512"),
    ("model101", 7): ("3", "3", "499/1024"),
}


def expected_y(strategy: str) -> float:
    """Exact E(Y_N) for a simulated strategy at the sizes the workloads run.

    The quantum sampler scores with probability (2 + sqrt 2)/4 per round.
    The uniform mixture of all 16 assignments meets two targets per round
    on average.  Every deterministic catalogue model plays, each round, an
    assignment that meets three of the four targets while the settings are
    uniform and independent of the past, so E(Y_N) = 3 at every N; the
    enumerator confirms e_y = 3 for guessing and model101 at n <= 7 and
    3/2 expected scoring rounds out of 2 for collective-n2.
    """
    if strategy == "quantum":
        return 2.0 + math.sqrt(2.0)
    if strategy == "stochastic-lhv":
        return 2.0
    return 3.0


def f_bound(n: int, delta: float) -> float:
    """The paper's tail bound f = sqrt(3) / (delta sqrt(2 pi N)) exp(-delta^2 N / 6)."""
    return math.sqrt(3.0) / (delta * math.sqrt(2.0 * math.pi * n)) * math.exp(-delta * delta * n / 6.0)


@dataclass(frozen=True)
class Job:
    """One CLI call; ``args`` leaves out ``--out`` and ``--batches-out``."""

    command: str
    strategy: str
    n: int
    args: tuple[str, ...]
    batches: int = 0
    delta: float = 0.1
    batches_out: bool = False

    def argv(self, out: Path, batches_out: Path) -> list[str]:
        argv = [*self.args, "--out", str(out)]
        if self.batches_out:
            argv += ["--batches-out", str(batches_out)]
        return argv


def _simulate(rng, strategy, n, batches, weights, batches_out=False, delta=0.1) -> Job:
    args = ["simulate", "--strategy", strategy, "--n", str(n), "--batches", str(batches),
            "--seed", str(rng.randrange(2 ** 31)), "--delta", repr(delta)]
    if strategy == "stochastic-lhv":
        args += ["--strategy-file", str(weights)]
    return Job("simulate", strategy, n, tuple(args), batches, delta, batches_out)


def _enumerate(strategy, n) -> Job:
    return Job("enumerate", strategy, n, ("enumerate", "--strategy", strategy, "--n", str(n)))


def _nosig(rng, strategy, n, weights) -> Job:
    args = ["nosig", "--strategy", strategy, "--n", str(n)]
    if strategy == "stochastic-lhv":
        args += ["--strategy-file", str(weights), "--seed", str(rng.randrange(2 ** 31))]
    return Job("nosig", strategy, n, tuple(args))


def sim_short_cycle(rng, weights) -> list[Job]:
    jobs = []
    for batches_out in (False, True):
        for strategy in ("constant-plus", "guessing", "model101", "quantum", "stochastic-lhv"):
            for n in range(1, 7):
                jobs.append(_simulate(rng, strategy, n, 2000, weights, batches_out))
        jobs.append(_simulate(rng, "collective-n2", 2, 2000, weights, batches_out))
    return jobs


def sim_long_cycle(rng, weights) -> list[Job]:
    strategies = ("guessing",) * 4 + ("constant-plus", "model101")
    return [_simulate(rng, s, 1000, 2000, weights) for s in strategies]


def exact_cycle(rng, weights) -> list[Job]:
    # Two nosig jobs per strategy put the median job inside the cluster of
    # guessing and model101 nosig jobs, not in the gap beside it.
    jobs = [_enumerate(s, n) for s in ("constant-plus", "guessing", "model101") for n in (6, 7)]
    jobs += [_nosig(rng, s, 5, weights) for s in ("constant-plus", "guessing", "model101", "stochastic-lhv") * 2]
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: Callable[[random.Random, Path], list[Job]]
    #: Seconds one cycle takes on the reference machine (2 cores, Python
    #: 3.11, numpy 2.4); a run plays round(seconds / cycle_s) whole cycles,
    #: so every run of a workload does the same jobs.
    cycle_s: float
    work_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-short",
            "simulate, all 6 strategies, n 1-6, 2000 batches, half with --batches-out: per-batch streams, "
            "tally, Fraction sums and CSV rows dominate; only workload reaching the general engine",
            sim_short_cycle, 6.5, "simulated rounds",
        ),
        Workload(
            "sim-long",
            "simulate at n=1000, mostly guessing: the kernel's per-round loop and chunk arrays dominate, "
            "per-batch costs are small; no per-batch output",
            sim_long_cycle, 1.3, "simulated rounds",
        ),
        Workload(
            "exact",
            "enumerate n=6,7 and nosig n=5 for deterministic models: brute-force playout, strategies "
            "and core do all the work, numpy none; nosig bypasses a faster enumerate engine",
            exact_cycle, 5.6, "setting sequences",
        ),
    )
}


def write_weights(path: Path, rng: random.Random) -> None:
    """Uniform mixture of the 16 deterministic assignments, rows in seeded order."""
    rows = list(itertools.product((1, -1), repeat=4))
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(("weight", "a1", "a2", "b1", "b2"))
        writer.writerows(("1/16", *row) for row in rows)


def job_list(workload: Workload, rng: random.Random, weights: Path, cycles: int) -> list[Job]:
    jobs = []
    for _ in range(cycles):
        cycle = workload.cycle(rng, weights)
        rng.shuffle(cycle)
        jobs += cycle
    return jobs


# --- output checks ---------------------------------------------------------


class CheckFailed(Exception):
    """A job's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_batches_csv(job: Job, path: Path, mean_y: Fraction) -> None:
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.DictReader(fp))
    _require(len(rows) == job.batches, f"{len(rows)} batch rows, expected {job.batches}")
    scoring = sum(int(r["c11"]) + int(r["c12"]) + int(r["c21"]) + int(r["a22"]) for r in rows)
    _require(Fraction(4 * scoring, job.batches * job.n) == mean_y, "batch rows disagree with mean_y")


def check(job: Job, rc, out: Path, batches_out: Path) -> int:
    """Validate one job's exit code and output; return the work it did.

    Work is simulated rounds for ``simulate`` and setting sequences covered
    for ``enumerate`` (4^n) and ``nosig`` (``sequences_checked``).  Raises
    :class:`CheckFailed` on a wrong result.
    """
    _require(rc == 0, f"exit code {rc}")
    with open(out, encoding="utf-8") as fp:
        payload = json.load(fp)
    _require(payload.get("command") == job.command and payload.get("n") == job.n, "payload names another job")
    if job.command == "simulate":
        _require(payload["batches"] == job.batches, "wrong batch count")
        mean_y = Fraction(payload["mean_y"]["fraction"])
        se_y = payload["se_y"]
        gap = abs(float(mean_y) - expected_y(job.strategy))
        _require(se_y is not None and gap <= MEAN_Y_SE * se_y,
                 f"mean_y {float(mean_y):.5f} is {gap:.5f} from E(Y), se {se_y}")
        if job.n >= 1000:
            half = (payload["wilson_y_high"] - payload["wilson_y_low"]) / 2
            tail = float(Fraction(payload["tail_freq_y"]["fraction"]))
            limit = f_bound(job.n, job.delta) + TAIL_WILSON_HALF_WIDTHS * half
            _require(tail <= limit, f"tail_freq_y {tail} above f + 4 half-widths = {limit}")
        if job.batches_out:
            _check_batches_csv(job, batches_out, mean_y)
        return job.batches * job.n
    if job.command == "enumerate":
        got = tuple(payload[k]["fraction"] for k in ("e_y", "e_x_conditional", "p_undefined"))
        _require(got == EXACT[(job.strategy, job.n)], f"exact values {got}")
        return 4 ** job.n
    _require(payload["passed"] is True, "no-signaling check failed")
    _require(payload["sequences_checked"] == 4 ** job.n, "wrong sequence count")
    return payload["sequences_checked"]
