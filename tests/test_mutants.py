"""The recorded mutants of mutants/run.py still apply to the sources.

Running the mutants takes minutes; these checks only read their texts, so
a change that moves or rewrites a mutated line fails here at once.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_runner():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_runner().MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_selects_a_test_file(mutant):
    source = (ROOT / "src" / "omegalab" / mutant.file).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    first = mutant.tests[0]
    assert first.startswith("tests/") and (ROOT / first).is_file()


def test_readme_table_names_every_mutant():
    lines = (ROOT / "mutants" / "README.md").read_text().splitlines()
    names = [line.split("`")[1] for line in lines if line.startswith("| `")]
    assert sorted(names) == sorted(m.name for m in MUTANTS)
