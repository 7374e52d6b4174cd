"""The committed mutant table still applies: every patch finds its text
and every selection names a test that exists.  No mutant is run here;
``python3 tools/mutants.py`` runs the table."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_table():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_table()


def defined_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


def test_every_patch_finds_its_old_text_once():
    found = {mutant.name: (ROOT / "src" / "chshsim" / mutant.path).read_text().count(mutant.old) for mutant in MUTANTS}
    assert {name: count for name, count in found.items() if count != 1} == {}


def test_every_selection_names_an_existing_test():
    missing = []
    for selection in sorted({test for mutant in MUTANTS for test in mutant.tests}):
        path, _, function = selection.partition("::")
        if not (ROOT / path).is_file() or function and function.split("[")[0] not in defined_functions(ROOT / path):
            missing.append(selection)
    assert missing == []
