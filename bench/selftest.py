"""Tests of the benchmark's own tracer and reporting.

Run from the repository root with ``python3 bench/selftest.py``.  The file
name keeps pytest from collecting it with the package's tests.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def spans(*rows):
    """A tracer holding (name, start, end, parent) rows as given."""
    t = tr.Tracer()
    for name, start, end, parent in rows:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    return t


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        clock = FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0)
        t = tr.Tracer(clock)
        child = t.wrap(lambda: None, "child")
        parent = t.wrap(lambda: (child(), child()), "parent")
        parent()
        summary = tr.SpanSummary(t)
        self.assertEqual(summary.busy("parent"), 10.0)
        self.assertEqual(summary.busy("child"), 2.5)
        self.assertEqual(summary.self_time("parent"), 7.5)
        self.assertEqual(summary.self_time("child"), 2.5)
        self.assertEqual(summary.calls("child", parents=["parent"]), 2)
        self.assertEqual(summary.calls("child", not_parents=["parent"]), 0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        t = spans(
            ("parent", 0.0, 10.0, tr.NO_PARENT),
            ("child", 1.0, 4.0, 0),
            ("child", 2.0, 5.0, 0),  # overlaps the first child by 2
            ("child", 9.0, 12.0, 0),  # runs past the parent's end by 2
        )
        self.assertEqual(list(tr.covered_by_children(t)), [5.0, 0.0, 0.0, 0.0])
        self.assertEqual(tr.SpanSummary(t).self_time("parent"), 5.0)

    def test_grandchildren_count_only_for_their_own_parent(self):
        t = spans(
            ("a", 0.0, 10.0, tr.NO_PARENT),
            ("b", 2.0, 8.0, 0),
            ("c", 3.0, 4.0, 1),
        )
        summary = tr.SpanSummary(t)
        self.assertEqual(summary.self_time("a"), 4.0)
        self.assertEqual(summary.self_time("b"), 5.0)
        self.assertEqual(summary.self_time("c"), 1.0)

    def test_nesting_violations(self):
        good = spans(("a", 0.0, 10.0, tr.NO_PARENT), ("b", 1.0, 9.0, 0))
        bad = spans(("a", 0.0, 1.0, tr.NO_PARENT), ("b", 0.0, 2.0, 0), ("c", 5.0, 4.0, tr.NO_PARENT))
        self.assertEqual(tr.nesting_violations(good, 1e-9), 0)
        self.assertEqual(tr.nesting_violations(bad, 1e-9), 2)

    def test_iterator_spans_cover_each_next_only(self):
        clock = FakeClock(0.0, 1.0, 5.0, 6.0, 9.0, 9.5)
        t = tr.Tracer(clock)
        items = []
        gen = t.wrap_iter(lambda: iter("ab"), "it", lambda a, k, item: items.append(item))
        self.assertEqual(list(gen()), ["a", "b"])
        self.assertEqual(items, ["a", "b"])
        self.assertEqual(len(t), 3)  # two items and the final StopIteration
        self.assertEqual(tr.SpanSummary(t).busy("it"), 2.5)


class Boundaries(unittest.TestCase):
    def setUp(self):
        self.pkg = types.ModuleType("fakepkg")
        self.mod = types.ModuleType("fakepkg.mod")
        self.user = types.ModuleType("fakepkg.user")

        def work(x):
            return x + 1

        self.work = work
        self.mod.work = work
        self.user.renamed = work  # imported under another name elsewhere
        for m in (self.pkg, self.mod, self.user):
            sys.modules[m.__name__] = m

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name, None)

    def test_every_binding_is_patched_and_restored(self):
        t = tr.Tracer()
        inst = tr.install(t, "fakepkg", [tr.Boundary("work", "fakepkg.mod", "work")])
        self.assertEqual(self.user.renamed(1), 2)
        self.assertEqual(self.mod.work(2), 3)
        self.assertEqual(tr.SpanSummary(t).calls("work"), 2)
        inst.restore()
        self.assertIs(self.mod.work, self.work)
        self.assertIs(self.user.renamed, self.work)

    def test_missing_boundaries_are_recorded_not_raised(self):
        t = tr.Tracer()
        inst = tr.install(t, "fakepkg", [
            tr.Boundary("gone", "fakepkg.mod", "deleted_function"),
            tr.Boundary("no-module", "fakepkg.nowhere", "work"),
            tr.MethodBoundary("no-class", "fakepkg.mod", "Base", ("respond",)),
            tr.Boundary("work", "fakepkg.mod", "work"),
        ])
        inst.restore()
        self.assertEqual(t.missing, {"gone", "no-module", "no-class"})

    def test_methods_of_concrete_subclasses_are_wrapped(self):
        class Base:
            def respond(self):
                return "base"

        class Inherits(Base):
            pass

        class Overrides(Base):
            def respond(self):
                return "own"

        self.mod.Base = Base
        t = tr.Tracer()
        inst = tr.install(t, "fakepkg", [tr.MethodBoundary("respond", "fakepkg.mod", "Base", ("respond",))])
        self.assertEqual((Inherits().respond(), Overrides().respond()), ("base", "own"))
        self.assertEqual(tr.SpanSummary(t).calls("respond"), 2)
        inst.restore()
        self.assertNotIn("respond", vars(Inherits))
        self.assertEqual(Overrides().respond(), "own")


class PackageBoundaries(unittest.TestCase):
    def test_all_boundaries_exist_in_the_package(self):
        import chshsim.cli  # noqa: F401  (loads every module the boundaries name)

        t = tr.Tracer()
        tr.install(t, run.PACKAGE, run.BOUNDARIES).restore()
        self.assertEqual(t.missing, set())

    def test_metric_of_a_missing_boundary_is_null(self):
        t = tr.Tracer()
        t.missing.add(run.BATCH_X)
        values = run.layer_metrics(run.Trace(tr.SpanSummary(t), t, {}, 0.0))
        self.assertIsNone(values["montecarlo.batch_x.calls"])
        self.assertIsNone(values["montecarlo.batch_x.busy_s"])
        self.assertEqual(values["montecarlo.engine.busy_s"], 0.0)
        self.assertEqual(set(values), {m.name for m in run.PER_LAYER})


class TracedRun(unittest.TestCase):
    def test_traced_jobs_give_consistent_layer_metrics(self):
        import random
        import tempfile

        import chshsim.cli as cli
        import workloads as wl

        rng = random.Random(0)
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            jobs = [
                wl._simulate(rng, "collective-n2", 2, 20, tmp / "w.csv", batches_out=True),
                wl._simulate(rng, "guessing", 3, 30, tmp / "w.csv"),
                wl._enumerate("constant-plus", 6),
                wl._nosig(rng, "guessing", 2, tmp / "w.csv"),
            ]
            t = tr.Tracer()
            installed = tr.install(t, run.PACKAGE, run.BOUNDARIES)
            try:
                result = run.run_pass(cli, jobs, tmp)
            finally:
                installed.restore()
        self.assertEqual(result.failures, [])
        self.assertEqual(tr.nesting_violations(t, run.RESOLUTION_S), 0)
        values = run.layer_metrics(run.Trace(tr.SpanSummary(t), t, {}, 0.0))
        self.assertEqual(values["cli.main.calls"], 4)
        self.assertEqual(values["montecarlo.engine.batches"], 50)
        self.assertEqual(values["montecarlo.engine.rounds"], 20 * 2 + 30 * 3)
        self.assertEqual(values["montecarlo.general.batches"], 20)
        self.assertEqual(values["stats.batch_statistics.calls"], 20)
        self.assertEqual(values["montecarlo.batch_x.calls"], 50 + 20)  # estimate, then the CSV sink
        self.assertAlmostEqual(values["montecarlo.kernel_share"], 0.6)
        self.assertEqual(values["enumerator.exact.sequences"], 4 ** 6)
        self.assertEqual(values["enumerator.nosig.sequences"], 16)
        self.assertEqual(values["enumerator.nosig.playouts_per_sequence"], 5)  # 2n + 1
        self.assertEqual(values["enumerator.playout.calls"], 4 ** 6 + 16 * 5)
        self.assertEqual(values["strategies.respond.calls"], 2 * (6 * 4 ** 6 + 2 * 16 * 5))
        for name, value in values.items():
            self.assertGreaterEqual(value, 0, name)

    def test_counter_reads_missing_when_a_result_changes_shape(self):
        t = tr.Tracer()
        count = run._counting(t, {"nosig.sequences": run._nosig_checked})
        count((), {}, types.SimpleNamespace(sequences_checked=16))
        self.assertEqual(t.counters, {"nosig.sequences": 16})
        count((), {}, object())
        self.assertEqual(t.missing, {"nosig.sequences"})


class Reporting(unittest.TestCase):
    def test_tail_has_ten_jobs_beyond_it(self):
        latencies = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail_latency(latencies), (90.0, 90.0))

    def test_spec_matches_the_benchmark_contract(self):
        spec = run.spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
