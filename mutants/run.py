"""Apply each recorded mutant to a copy of ``src/`` and run the tests that
must catch it.

    python3 mutants/run.py              # every mutant
    python3 mutants/run.py NAME ...     # the named mutants

A mutant is an exact (file, old text, new text, test selection).  For each
one the script copies ``src/`` into a temporary directory, replaces the old
text by the new one there, and runs the selected tests against the copy
with ``-x -m "not slow"``.  A failing selection kills the mutant; a passing
one lets it survive.  Each selection first runs once against an unchanged
copy, since a kill by a selection that already fails shows nothing.  An old
text that is missing, or found more than once, is an error: a refactor
carries its mutants along.  The repository itself is never edited.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 on an
error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/omegalab/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, from the repository root


MUTANTS = (
    Mutant(
        "own-length-status",
        "dovetail.py",
        'yield f"{prefix} {length} {status} {steps} {value}\\n"',
        'yield f"{prefix} {length} {status if steps else STATUS_UNKNOWN} {steps} {value}\\n"',
        ("tests/test_dovetail.py", "-k", "pinned or own_length"),
    ),
    Mutant(
        "head-hex-separator",
        "evaluator.py",
        'return text.encode("latin-1").hex() + "00"',
        'return text.encode("latin-1").hex() + "80"',
        ("tests/test_machine.py", "-k", "head_hex"),
    ),
    Mutant(
        "atom-check-takes-spaces",
        "sexpr.py",
        "if not name or not ATOM_CHARS.issuperset(name):",
        "if not name or not _JOINED_ATOM_CHARS.issuperset(name):",
        ("tests/test_sexpr.py", "-k", "atom_matches_the_walk"),
    ),
    Mutant(
        "blocks-push-order",
        "dovetail.py",
        'todo += (path + "1", path + "0")',
        'todo += (path + "0", path + "1")',
        ("tests/test_dovetail.py", "-k", "heads_that_read"),
    ),
    Mutant(
        "derived-count-window-start",
        "dovetail.py",
        "n * ((2 << (last - size)) - (1 << (max(first, size) - size)))",
        "n * ((2 << (last - size)) - 1)",
        ("tests/test_dovetail.py", "-k", "matches_per_record_reference"),
    ),
)


def _pytest(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-m", "not slow",
        "-p", "no:cacheprovider", *tests,
    ]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(workdir: Path, mutant: Mutant | None) -> Path:
    """A fresh copy of src/ under workdir, with the mutant applied."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "omegalab" / mutant.file
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            raise LookupError(
                f"{mutant.name}: old text found {found} times in {mutant.file}"
            )
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    survived = 0
    with tempfile.TemporaryDirectory(prefix="omegalab-mutants-") as tmp:
        workdir = Path(tmp)
        try:
            for tests in dict.fromkeys(m.tests for m in chosen):
                baseline = _pytest(_copy(workdir, None), tests)
                if baseline.returncode != 0:
                    print(f"error: {' '.join(tests)} fails unmutated\n{baseline.stdout}")
                    return 2
            for mutant in chosen:
                clock = time.perf_counter()
                result = _pytest(_copy(workdir, mutant), mutant.tests)
                seconds = time.perf_counter() - clock
                if result.returncode == 1:
                    failed = [line for line in result.stdout.splitlines()
                              if line.startswith("FAILED ")]
                    verdict = "killed by " + (failed[0].split()[1] if failed else "?")
                elif result.returncode == 0:
                    verdict = "SURVIVED"
                    survived += 1
                else:
                    print(f"error: {mutant.name}: pytest exit {result.returncode}\n"
                          f"{result.stdout}{result.stderr}")
                    return 2
                print(f"{mutant.name:28} {seconds:5.1f} s  {verdict}", flush=True)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"{len(chosen) - survived} of {len(chosen)} killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
