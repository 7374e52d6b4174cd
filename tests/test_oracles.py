"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def imported_modules(source):
    """Every module an import statement in ``source`` names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def imports_package(source):
    return any(
        name.split(".")[0] in ("chshsim", "") for name in imported_modules(source)
    )


def test_guard_sees_package_imports():
    assert not imports_package("import itertools\nfrom fractions import Fraction\n")
    for line in (
        "import chshsim",
        "import numpy, chshsim.core as core",
        "from chshsim import enumerator",
        "from chshsim.stats import round_score",
        "def f():\n    from .enumerator import playout",
    ):
        assert imports_package(line), line


def test_oracles_import_nothing_from_the_package():
    assert not imports_package(ORACLES.read_text())
