"""Command-line entry point.

One subcommand per library operation, reproducible output: text mode leads
with a ``# machine:`` tag line, JSON mode is stable-keyed so identical
inputs give byte-identical output.  Exit codes: 0 success, 1 domain error
(malformed programs, bad files, a missing input), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice

from . import complexity, dovetail, incompleteness, machine, sexpr
from .evaluator import (
    AbortOverrun,
    Halted,
    OutOfTime,
    evaluate,
)

CENSUS_DIR_ENV = "OMEGALAB_CENSUS_DIR"


class MissingInput(Exception):
    """A command was given none of the options that name its input."""


def _census_path(path: str) -> str:
    base = os.environ.get(CENSUS_DIR_ENV)
    if base and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(base, path)
    return path


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        tagged = {**report, "machine": machine.MACHINE_VERSION}
        print(json.dumps(tagged, sort_keys=True, separators=(", ", ": ")))
        return
    print(f"# machine: {machine.MACHINE_VERSION}")
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _outcome_fields(outcome) -> dict:
    if isinstance(outcome, Halted):
        return {
            "outcome": "halted",
            "value": sexpr.print_canonical(outcome.value),
            "bits_consumed": outcome.bits_consumed,
            "steps": outcome.steps,
            "emitted": [sexpr.print_canonical(e) for e in outcome.emitted],
        }
    if isinstance(outcome, AbortOverrun):
        return {"outcome": "abort-overrun", "steps": outcome.steps}
    if isinstance(outcome, OutOfTime):
        return {
            "outcome": "out-of-time",
            "emitted": [sexpr.print_canonical(e) for e in outcome.emitted],
        }
    return {"outcome": "malformed-program", "reason": outcome.reason}


def _read_text(expr: str | None, path: str | None) -> str:
    if expr is not None:
        return expr
    if path is not None:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    raise MissingInput("provide --expr or --file")


def _cmd_parse(ns) -> int:
    text = _read_text(ns.expr, ns.file)
    exprs = sexpr.parse(text)
    _emit({"expressions": [sexpr.print_canonical(e) for e in exprs]}, ns.format)
    return 0


def _cmd_eval(ns) -> int:
    text = ""
    if ns.prelude:
        with open(ns.prelude, "r", encoding="ascii") as fh:
            text = fh.read() + "\n"
    text += _read_text(ns.expr, ns.file)
    program = sexpr.parse(text)
    tape_bits = ns.tape or ""
    if ns.tape_file:
        with open(ns.tape_file, "r", encoding="ascii") as fh:
            tape_bits = fh.read().strip()
    outcome = evaluate(program, tape_bits, ns.budget)
    report = _outcome_fields(outcome)
    if isinstance(outcome, Halted):
        # The headline result, on its own line in text mode.
        report = {"value": report.pop("value"), **report}
    _emit(report, ns.format)
    return 0 if isinstance(outcome, Halted) else 1


def _cmd_encode(ns) -> int:
    exprs = sexpr.parse(_read_text(ns.expr, ns.file))
    program = machine.encode_program(exprs, ns.data)
    if ns.out:
        machine.save_program(ns.out, program)
    _emit(
        {
            "bits": len(program.bits),
            "hex": program.hex,
            "binary": program.bits,
            "text": sexpr.print_program(exprs),
        },
        ns.format,
    )
    return 0


def _load_program_arg(ns) -> machine.BinaryProgram:
    if ns.program is not None:
        return machine.load_program(ns.program)
    if ns.bits is not None:
        return machine.BinaryProgram(ns.bits)
    raise MissingInput("provide --program FILE or --bits 0101...")


def _cmd_run(ns) -> int:
    program = _load_program_arg(ns)
    result = machine.run_program(program, ns.budget)
    report = _outcome_fields(result.outcome)
    report["bits"] = len(program.bits)
    report["hex"] = program.hex
    report["binary"] = program.bits
    report["valid_halt"] = result.valid_halt
    _emit(report, ns.format)
    return 0 if result.valid_halt else 1


def _cmd_enumerate(ns) -> int:
    programs = [
        f"{p.hex} {len(p.bits)}"
        for p in islice(dovetail.enumerate_programs(ns.max_bits), ns.limit)
    ]
    _emit({"count": len(programs), "programs": programs}, ns.format)
    return 0


def _cmd_census(ns) -> int:
    if ns.resume:
        census = dovetail.load_census(_census_path(ns.resume))
    else:
        census = dovetail.new_census(24 if ns.max_bits is None else ns.max_bits)
    dovetail.advance(census, ns.stages, jobs=ns.jobs)
    dovetail.save_census(census, _census_path(ns.out))
    statuses, bound = dovetail.tally(census)
    _emit(
        {
            "out": ns.out,
            "stage": census.stage,
            "max_bits": census.max_bits,
            "records": sum(statuses.values()),
            "statuses": dict(sorted(statuses.items())),
            "omega_lower_bound": str(bound),
        },
        ns.format,
    )
    return 0


def _cmd_omega(ns) -> int:
    census = dovetail.load_census(_census_path(ns.census))
    bound = dovetail.omega_lower_bound(census)
    report = {
        "fraction": str(bound),
        "binary": bound.binary_expansion(ns.bits),
        "stage": census.stage,
        "max_bits": census.max_bits,
    }
    if ns.decide_bits is not None:
        target = bound.truncate(ns.decide_bits)
        decision = dovetail.decide_halting_via_omega(
            target, ns.decide_bits, census, bound=bound
        )
        report["decide"] = {
            "n_bits": decision.n_bits,
            "target": str(decision.target),
            "stop_stage": decision.stop_stage,
            "halting": len(decision.halting),
            "not_halting_relative": len(decision.not_halting_relative),
        }
    _emit(report, ns.format)
    return 0


def _estimate_fields(est: complexity.ComplexityEstimate) -> dict:
    return {
        "bound_bits": est.bound_bits,
        "witness_hex": est.witness.hex,
        "witness_bits": len(est.witness.bits),
        "search_exhausted_to": est.search_exhausted_to,
        "budget": est.budget_used,
    }


def _cmd_complexity(ns) -> int:
    with open(ns.of, "r", encoding="ascii") as fh:
        x = sexpr.parse_one(fh.read())
    census = dovetail.load_census(_census_path(ns.census)) if ns.census else None
    if ns.joint:
        with open(ns.joint, "r", encoding="ascii") as fh:
            y = sexpr.parse_one(fh.read())
        ex, ey, est = complexity._joint(x, y, census, ns.budget)
        report = {"kind": "joint", **_estimate_fields(est)}
        # mutual_info_estimate's identity over the bounds already computed
        report["mutual_info"] = ex.bound_bits + ey.bound_bits - est.bound_bits
    elif ns.given:
        wy = machine.load_program(ns.given)
        est = complexity.h_relative_upper(x, wy, census, ns.budget)
        report = {"kind": "relative", **_estimate_fields(est)}
    else:
        est = complexity.h_upper(x, census, ns.budget)
        report = {"kind": "plain", **_estimate_fields(est)}
    report["subject"] = sexpr.print_canonical(est.subject)
    _emit(report, ns.format)
    return 0


def _cmd_diag(ns) -> int:
    table = incompleteness.diagonal_table(ns.count, ns.budget)
    rows = [
        f"{row.index} {row.program_text!r} "
        f"{'-' if row.produced is None else row.produced} -> {row.diagonal_digit}"
        for row in table.rows
    ]
    _emit(
        {
            "budget": table.budget,
            "digits": "".join(str(d) for d in table.digits),
            "rows": rows,
        },
        ns.format,
    )
    return 0


def _cmd_theory(ns) -> int:
    program = machine.load_program(ns.program)
    run = incompleteness.run_theory(program, ns.budget)
    report = {
        "size_bits": run.size_bits,
        "terminal": run.terminal,
        "theorems": [sexpr.print_canonical(t) for t in run.theorems],
        "theorem_count": len(run.theorems),
        "budget_consumed": run.budget_consumed,
    }
    if ns.omega_claims:
        claims = incompleteness.omega_bit_claims(run)
        report["omega_claims"] = {
            "claims": {str(p): b for p, b in claims.claims.items()},
            "claim_count": claims.claim_count,
            "inconsistent_positions": list(claims.inconsistent_positions),
            "theory_bits": claims.theory_bits,
        }
    _emit(report, ns.format)
    return 0


def _at_least(minimum: int):
    """argparse type for an integer count no smaller than minimum."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


# One parser serves every call in a process: its defaults are module
# constants, and each parse makes a fresh namespace.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="halting probabilities and program-size complexity, desk scale",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _at_least(1)
    # Each mutually exclusive group holds options that would override each
    # other.  They take no parser default, because argparse does not count a
    # given value that is the default as given.

    def text_source(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--expr")
        g.add_argument("--file")

    p = sub.add_parser("parse", help="parse and canonically print expressions")
    text_source(p)

    p = sub.add_parser("eval", help="evaluate a program against a tape")
    text_source(p)
    p.add_argument("--prelude", help="file of define forms loaded first")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--tape", help="inline 0/1 string (default: empty)")
    g.add_argument("--tape-file", help="read the tape bits from a file")
    p.add_argument("--budget", type=positive, default=machine.DEFAULT_BUDGET)

    p = sub.add_parser("encode", help="pack program text and data bits")
    text_source(p)
    p.add_argument("--data", default="")
    p.add_argument("--out", help="write the program file here")

    p = sub.add_parser("run", help="decode and run a binary program")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--program", help="program file (bits: N header + hex)")
    g.add_argument("--bits", help="inline 0/1 string")
    p.add_argument("--budget", type=positive, default=machine.DEFAULT_BUDGET)

    p = sub.add_parser("enumerate", help="stream decodable programs by size")
    p.add_argument("--max-bits", type=_at_least(0), required=True)
    p.add_argument("--limit", type=_at_least(0))

    p = sub.add_parser("census", help="create or resume a dovetail census")
    p.add_argument("--stages", type=_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=positive, default=1)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--resume", help="census file to continue")
    g.add_argument("--max-bits", type=_at_least(dovetail.MIN_PROGRAM_BITS),
                   help="corpus bound (default: 24)")

    p = sub.add_parser("omega", help="exact halting-probability lower bound")
    p.add_argument("--census", required=True)
    p.add_argument("--bits", type=_at_least(0), help="expansion width")
    p.add_argument("--decide-bits", type=_at_least(0),
                   help="also classify all programs up to this size")

    p = sub.add_parser("complexity", help="upper-bound information content")
    p.add_argument("--of", required=True, help="expression file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--joint", help="second expression file for a pair query")
    g.add_argument("--given", help="witness program file for a relative query")
    p.add_argument("--census")
    p.add_argument("--budget", type=positive, default=complexity.DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("diag", help="diagonal digits against enumerated programs")
    p.add_argument("--count", type=positive, required=True)
    p.add_argument("--budget", type=positive, required=True)

    p = sub.add_parser("theory", help="run a statement-generator program")
    p.add_argument("--program", required=True)
    p.add_argument("--budget", type=positive, required=True)
    p.add_argument("--omega-claims", action="store_true")

    return parser


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "encode": _cmd_encode,
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "census": _cmd_census,
    "omega": _cmd_omega,
    "complexity": _cmd_complexity,
    "diag": _cmd_diag,
    "theory": _cmd_theory,
}

# ValueError covers the reader's errors (sexpr.SExprError) and
# complexity.NotABitString and complexity.InvalidWitness.
_DOMAIN_EXCEPTIONS = (
    dovetail.VersionMismatch,
    dovetail.CorruptFile,
    MissingInput,
    OSError,
    ValueError,
)


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not a domain error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 1
    except _DOMAIN_EXCEPTIONS as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
