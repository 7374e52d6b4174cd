"""The benchmark's tracer finds every package function it wraps.

``bench/run.py`` names the package functions it traces in ``BOUNDARIES``.
One that no longer resolves is only recorded as missing, and its layer
metrics read None, so a deletion or rename would blind the benchmark
without failing it.  This test imports ``bench/run.py`` as it is.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def concrete_subclasses(base):
    found, todo = set(), [base]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                todo.append(cls)
    return [cls for cls in found if not inspect.isabstract(cls)]


def test_every_benchmark_boundary_resolves_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look themselves up there
    spec.loader.exec_module(run)
    import tracer

    assert run.BOUNDARIES
    for boundary in run.BOUNDARIES:
        assert boundary.module.split(".")[0] == run.PACKAGE, boundary
        owner = importlib.import_module(boundary.module)
        if isinstance(boundary, tracer.MethodBoundary):
            classes = concrete_subclasses(getattr(owner, boundary.base))
            assert classes, boundary
            for cls in classes:
                assert all(callable(getattr(cls, method, None)) for method in boundary.methods), (boundary, cls)
        else:
            assert callable(getattr(owner, boundary.attr, None)), boundary
