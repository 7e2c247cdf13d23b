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
        'yield f"{prefix} {length} {status[i]} {steps[i]} {value}\\n"',
        'yield f"{prefix} {length} {status[i] if steps[i] else STATUS_UNKNOWN} '
        '{steps[i]} {value}\\n"',
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
    Mutant(
        "blocks-every-halt-valid",
        "dovetail.py",
        "        if status == STATUS_HALTED_VALID and bits_read != n:\n"
        "            status = STATUS_HALTED_INVALID\n",
        "",
        ("tests/test_dovetail.py", "-k", "read_paths_match or decide_from_paths"),
    ),
    Mutant(
        "decide-skips-held-below-window",
        "dovetail.py",
        "    held(MIN_PROGRAM_BITS, min(first - 1, n_bits))\n",
        "",
        ("tests/test_dovetail.py", "-k", "window_above_the_shortest"),
    ),
    Mutant(
        "held-halt-always-valid",
        "dovetail.py",
        "            if record.status == STATUS_HALTED_VALID and not result.valid_halt:\n"
        "                record.status = STATUS_HALTED_INVALID\n",
        "",
        ("tests/test_dovetail.py", "-k", "read_paths_match"),
    ),
    Mutant(
        "valid-halts-any-status",
        "dovetail.py",
        "        if status == STATUS_HALTED_VALID:\n            key = ",
        "        if True:\n            key = ",
        ("tests/test_dovetail.py", "-k", "winner_from_paths_that_read"),
    ),
    Mutant(
        "valid-halts-window-start",
        "dovetail.py",
        "if first <= key[0] <= last and key <",
        "if key[0] <= last and key <",
        ("tests/test_dovetail.py", "-k", "below_the_window"),
    ),
    Mutant(
        "index-compares-length-only",
        "dovetail.py",
        "and key < derived.get(value_text, above):",
        "and key[0] < derived.get(value_text, above)[0]:",
        ("tests/test_dovetail.py", "tests/test_complexity.py", "-k", "winner or index"),
    ),
    Mutant(
        "derived-shorter-length-whole-pool",
        "dovetail.py",
        "fits[chars] = [bisect_left(texts, text) for text in parseable_texts_upto(chars)]",
        "fits[chars] = range(len(texts))",
        ("tests/test_dovetail.py", "-k", "pinned"),
    ),
    Mutant(
        "aborted-run-kept-in-columns",
        "dovetail.py",
        "            if read is None:\n"
        "                census._paths[texts[i]] = {\"\": fields}",
        "            if read is None:\n"
        "                pass",
        ("tests/test_dovetail.py", "-k", "heads_that_read_match"),
    ),
    Mutant(
        "grow-keeps-unknown-paths",
        "dovetail.py",
        "{p: f for p, f in paths.items() if f[0] != STATUS_UNKNOWN}",
        "dict(paths)",
        ("tests/test_dovetail.py", "-k", "enrolled_heads_that_read"),
    ),
    Mutant(
        "loaded-abort-kept-in-columns",
        "dovetail.py",
        "                    if bits_read is None:\n"
        "                        census._paths[text] = {\"\": fields}",
        "                    if bits_read is None:\n"
        "                        pass",
        ("tests/test_dovetail.py", "-k", "heads_that_read_load"),
    ),
    Mutant(
        "realign-drops-enrolled-runs",
        "dovetail.py",
        "[next(column) if keep else None for keep in kept]",
        "[None for keep in kept]",
        ("tests/test_cli.py", "-k", "resume_runs_only"),
    ),
    Mutant(
        "tally-longer-records-valid",
        "dovetail.py",
        "            status = STATUS_HALTED_INVALID\n"
        "        if count:",
        "        if count:",
        ("tests/test_dovetail.py", "-k", "matches_per_record_reference"),
    ),
    Mutant(
        "program-heads-no-separator",
        "evaluator.py",
        'bits = program_head("\\x00".join(texts))',
        'bits = program_head("".join(texts))',
        ("tests/test_machine.py", "-k", "program_heads"),
    ),
    Mutant(
        "pool-import-at-load",
        "dovetail.py",
        "from contextlib import nullcontext, suppress\n",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from contextlib import nullcontext, suppress\n",
        ("tests/test_cli.py", "-k", "never_imports_the_process_pool"),
    ),
    Mutant(
        "run-remaining-free-step",
        "evaluator.py",
        "                inner, _, cursor = scanned\n",
        "                inner, _, cursor = scanned\n"
        "                steps -= 1\n",
        ("tests/test_dovetail.py", "-k", "plain_census_one_step_later"),
    ),
    Mutant(
        "run-remaining-keeps-cursor",
        "evaluator.py",
        "inner, _, cursor = scanned",
        "inner, _, _ = scanned",
        ("tests/test_dovetail.py", "-k", "plain_census_one_step_later"),
    ),
    Mutant(
        "halt-extra-step",
        "evaluator.py",
        "_set_halted_steps(outcome, steps)",
        "_set_halted_steps(outcome, steps + 1)",
        ("tests/test_reference_evaluator.py", "-k", "fuzzed_programs"),
    ),
    Mutant(
        "scan-unaligned-separator",
        "evaluator.py",
        "    while at >= 0 and (at - cursor) % 8:\n"
        "        at = bits.find(\"00000000\", at + 1)\n",
        "",
        ("tests/test_machine.py", "-k", "scan_program or nested_run"),
    ),
    Mutant(
        "reader-outermost-paren",
        "sexpr.py",
        "raise UnbalancedParens(stack[-1][2])",
        "raise UnbalancedParens(stack[0][2])",
        ("tests/test_sexpr.py", "-k", "matches_reference_on_large"),
    ),
    Mutant(
        "reader-first-pending-quote",
        "sexpr.py",
        "        raise DanglingQuote(quotes[-1])\n    return tuple(items)",
        "        raise DanglingQuote(quotes[0])\n    return tuple(items)",
        ("tests/test_sexpr.py", "-k", "matches_two_stage_reference"),
    ),
    Mutant(
        "reader-split-before-alphabet",
        "sexpr.py",
        "    if not TEXT_CHARS.issuperset(text):\n",
        "    if \"(\" not in text and \")\" not in text and \"'\" not in text:\n"
        "        return tuple(text.split())\n"
        "    if not TEXT_CHARS.issuperset(text):\n",
        ("tests/test_sexpr.py", "-k", "illegal_character or atoms_only"),
    ),
    Mutant(
        "reader-split-ignores-quote",
        "sexpr.py",
        """if "(" not in text and ")" not in text and "'" not in text:""",
        """if "(" not in text and ")" not in text:""",
        ("tests/test_sexpr.py", "-k", "quote_sugar or atoms_only"),
    ),
    Mutant(
        "call-pads-with-an-atom",
        "evaluator.py",
        "args += [()] * (len(params) - len(args))",
        'args += ["nil"] * (len(params) - len(args))',
        ("tests/test_evaluator.py", "-k", "arity_padding"),
    ),
    Mutant(
        "view-append-past-tip",
        "evaluator.py",
        "                    if len(store) == n:\n                        store.append(x)\n",
        "                    if True:\n                        store.append(x)\n",
        ("tests/test_reference_evaluator.py", "-k", "list_shapes"),
    ),
    Mutant(
        "in-place-operand-free-step",
        "evaluator.py",
        "                expr = expr[1] if len(expr) > 1 else ()\n",
        "                expr = expr[1] if len(expr) > 1 else ()\n"
        "                steps -= 1\n",
        ("tests/test_reference_evaluator.py", "-k", "edge"),
    ),
    Mutant(
        "branch-on-true",
        "evaluator.py",
        'expr = task[1] if vals.pop() != "false" else task[2]',
        'expr = task[1] if vals.pop() == "true" else task[2]',
        ("tests/test_reference_evaluator.py", "-k", "edge"),
    ),
    Mutant(
        "dedupe-merges-equal-shapes",
        "incompleteness.py",
        "            bucket = buckets[key] = {_fingerprint(bucket, memo): [bucket]}\n",
        "            continue\n",
        ("tests/test_incompleteness.py", "-k", "run_theory"),
    ),
    Mutant(
        "materialise-every-path",
        "evaluator.py",
        "                if child[3] is not None:\n"
        "                    acc.append(child[3])\n"
        "                elif not child[2]:\n",
        "                if not child[2]:\n",
        ("tests/test_evaluator.py", "-k", "shared_value_once_per_node"),
    ),
    Mutant(
        "eq-skips-length-check",
        "evaluator.py",
        "    if (a[1] if type(a) is list else len(a)) != (b[1] if type(b) is list else len(b)):\n",
        "    if len(_plain(a)) != len(_plain(b)):\n",
        ("tests/test_evaluator.py", "-k", "linear_total_length"),
    ),
    Mutant(
        "stream-skips-eof-check",
        "dovetail.py",
        "    return not fh.read(1)\n",
        "    return True\n",
        ("tests/test_dovetail.py", "-k", "text_after_the_last_line"),
    ),
    Mutant(
        "stream-trusts-own-line",
        "dovetail.py",
        "            elif piece != line:\n                return False\n",
        "",
        ("tests/test_dovetail.py", "-k", "fuzzed"),
    ),
    Mutant(
        "stream-holds-the-text",
        "dovetail.py",
        "    fh.seek(0)\n    line = None",
        "    text = fh.read()\n    fh.seek(0)\n    line = None",
        ("tests/test_dovetail.py", "-k", "small_part"),
    ),
    Mutant(
        "path-fields-keeps-line-status",
        "dovetail.py",
        "            return STATUS_HALTED_VALID, steps, parts[4], data_bits\n",
        "            return status, steps, parts[4], data_bits\n",
        ("tests/test_dovetail.py", "-k", "small_part"),
    ),
    Mutant(
        "ascii-pass-skipped",
        "dovetail.py",
        "    newlines = _ascii_newlines(path)\n",
        "    newlines = 1 << 62\n",
        ("tests/test_dovetail.py", "-k", "non_ascii_byte"),
    ),
    Mutant(
        "ascii-pass-chunk-offset",
        "dovetail.py",
        "in position {offset + exc.start}",
        "in position {exc.start}",
        ("tests/test_dovetail.py", "-k", "non_ascii_byte"),
    ),
    Mutant(
        "equal-no-deep-fallback",
        "evaluator.py",
        "    except RecursionError:\n        return _deep_equal(a, b)\n",
        "    except RecursionError:\n        return False\n",
        ("tests/test_evaluator.py", "tests/test_incompleteness.py",
         "-k", "past_the_host_stack or too_deep"),
    ),
    Mutant(
        "missing-input-uncaught",
        "cli.py",
        "    MissingInput,\n",
        "",
        ("tests/test_cli.py", "-k", "missing_input"),
    ),
    Mutant(
        "diagonal-row-position",
        "incompleteness.py",
        "produced = _digit_output(expr, text, n, budget)",
        "produced = _digit_output(expr, text, n + 1, budget)",
        ("tests/test_incompleteness.py", "-k", "row_n_at_position_n"),
    ),
    Mutant(
        "fingerprint-by-identity",
        "incompleteness.py",
        "        memo[id(node)] = hash(tuple([\n"
        "            hash(item) if type(item) is str else memo[id(item)] for item in node\n"
        "        ]))\n",
        "        memo[id(node)] = id(node)\n",
        ("tests/test_incompleteness.py", "-k", "run_theory"),
    ),
    Mutant(
        "fingerprint-ignores-order",
        "incompleteness.py",
        "memo[id(node)] = hash(tuple([",
        "memo[id(node)] = hash(frozenset([",
        ("tests/test_incompleteness.py", "-k", "fingerprint"),
    ),
    Mutant(
        "dedupe-skips-equal-check",
        "incompleteness.py",
        "        if any(_equal(statement, member) for member in members):\n",
        "        if members:\n",
        ("tests/test_incompleteness.py", "-k", "fingerprint"),
    ),
    Mutant(
        "theory-abort-as-halt",
        "incompleteness.py",
        'emitted, consumed, terminal = out.emitted, out.steps, "aborted"',
        'emitted, consumed, terminal = out.emitted, out.steps, "halted-invalid"',
        ("tests/test_incompleteness.py", "-k", "cannot_go_on"),
    ),
    Mutant(
        "estimate-skips-witness-check",
        "complexity.py",
        "    if not admitted:\n",
        "    if False:\n",
        ("tests/test_complexity.py", "-k", "no_witness"),
    ),
    Mutant(
        "run-remaining-skips-define-check",
        "evaluator.py",
        "                if not _defines_then_body(inner):\n"
        "                    return _aborted(steps, tuple(emitted))\n",
        "",
        ("tests/test_evaluator.py", "-k", "run_remaining"),
    ),
    Mutant(
        "evaluate-skips-tape-check",
        "evaluator.py",
        '    if tape.strip("01"):\n'
        '        raise ValueError("tape bits must be a string over 0/1")\n',
        "",
        ("tests/test_evaluator.py", "-k", "tape_must_be"),
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
                print(f"{mutant.name:33} {seconds:5.1f} s  {verdict}", flush=True)
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"{len(chosen) - survived} of {len(chosen)} killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
