"""The mutant list of scripts/mutants.py against the tree: each entry's text
occurs exactly once in its file, and each test it names exists, so that a
stale entry fails here, in seconds, and not only in the run of the mutants."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
MUTANTS = mutants.MUTANTS
IDS = [f"{i}-{m.file}" for i, m in enumerate(MUTANTS)]


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_text_occurs_once(mutant):
    source = (ROOT / "src" / "slantmodel" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_named_tests_exist():
    # A node is a file, a class in it, or a function of that class.
    for node in sorted({m.test for m in MUTANTS if m.test}):
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        tree = ast.parse((ROOT / path).read_text())
        if not names:
            continue
        classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
        assert names[0] in classes, node
        if len(names) > 1:
            functions = {f.name for f in classes[names[0]].body if isinstance(f, ast.FunctionDef)}
            assert names[1] in functions, node
