"""Command-line entry point.

One subcommand per library operation, reproducible output: text mode leads
with a ``# machine:`` tag line, JSON mode is stable-keyed so identical
inputs give byte-identical output.  Exit codes: 0 success, 1 domain error
(malformed programs, exceeded caps, bad files), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import complexity, dovetail, incompleteness, machine, sexpr
from .evaluator import (
    AbortOverrun,
    BitTape,
    Halted,
    OutOfTime,
    evaluate,
)

CENSUS_DIR_ENV = "OMEGALAB_CENSUS_DIR"


class _DomainError(Exception):
    """Wraps a domain failure for exit-code-1 reporting."""

    def __init__(self, variant: str, detail: str = ""):
        super().__init__(f"{variant}{': ' + detail if detail else ''}")
        self.variant = variant


def _census_path(path: str) -> str:
    base = os.environ.get(CENSUS_DIR_ENV)
    if base and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(base, path)
    return path


def _emit(report: dict, fmt: str) -> None:
    report["machine"] = machine.MACHINE_VERSION
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, separators=(", ", ": ")))
        return
    print(f"# machine: {machine.MACHINE_VERSION}")
    for key, value in report.items():
        if key == "machine":
            continue
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


def _read_text(flag_value: str | None, file_value: str | None, what: str) -> str:
    if flag_value is not None:
        return flag_value
    if file_value is not None:
        with open(file_value, "r", encoding="ascii") as fh:
            return fh.read()
    raise _DomainError("MissingInput", f"provide --{what} or --{what}-file")


def _cmd_parse(ns) -> int:
    text = _read_text(ns.expr, ns.file, "expr")
    exprs = sexpr.parse(text)
    _emit({"expressions": [sexpr.print_canonical(e) for e in exprs]}, ns.format)
    return 0


def _cmd_eval(ns) -> int:
    text = ""
    if ns.prelude:
        with open(ns.prelude, "r", encoding="ascii") as fh:
            text = fh.read() + "\n"
    text += _read_text(ns.expr, ns.file, "expr")
    program = sexpr.parse(text)
    tape_bits = ns.tape
    if ns.tape_file:
        with open(ns.tape_file, "r", encoding="ascii") as fh:
            tape_bits = fh.read().strip()
    tape = BitTape(tape_bits)
    outcome = evaluate(program, tape, ns.budget)
    report = _outcome_fields(outcome)
    if isinstance(outcome, Halted):
        # The headline result, on its own line in text mode.
        report = {"value": report.pop("value"), **report}
    _emit(report, ns.format)
    return 0 if isinstance(outcome, Halted) else 1


def _cmd_encode(ns) -> int:
    text = _read_text(ns.expr, ns.file, "expr")
    program = machine.encode_text(text, ns.data)
    if ns.out:
        machine.save_program(ns.out, program)
    _emit(
        {
            "bits": len(program.bits),
            "hex": program.hex,
            "binary": program.bits,
            "text": sexpr.print_program(sexpr.parse(text)),
        },
        ns.format,
    )
    return 0


def _load_program_arg(ns) -> machine.BinaryProgram:
    if ns.program:
        return machine.load_program(ns.program)
    if ns.bits:
        return machine.BinaryProgram(ns.bits)
    raise _DomainError("MissingInput", "provide --program FILE or --bits 0101...")


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
    programs = []
    for i, p in enumerate(dovetail.enumerate_programs(ns.max_bits)):
        if ns.limit is not None and i >= ns.limit:
            break
        programs.append(f"{p.hex} {len(p.bits)}")
    _emit({"count": len(programs), "programs": programs}, ns.format)
    return 0


def _cmd_census(ns) -> int:
    if ns.resume:
        census = dovetail.load_census(_census_path(ns.resume))
    else:
        census = dovetail.new_census(ns.max_bits)
    dovetail.advance(census, ns.stages, jobs=ns.jobs)
    dovetail.save_census(census, _census_path(ns.out))
    statuses = {}
    for record in census.records.values():
        statuses[record.status] = statuses.get(record.status, 0) + 1
    _emit(
        {
            "out": ns.out,
            "stage": census.stage,
            "max_bits": census.max_bits,
            "records": len(census.records),
            "statuses": dict(sorted(statuses.items())),
            "omega_lower_bound": str(dovetail.omega_lower_bound(census)),
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
            target, ns.decide_bits, census, stage_cap=ns.stage_cap, jobs=ns.jobs
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
        est = complexity.h_joint_upper(x, y, census, ns.budget)
        report = {"kind": "joint", **_estimate_fields(est)}
        report["mutual_info"] = complexity.mutual_info_estimate(x, y, census, ns.budget)
    elif ns.given:
        wy = machine.load_program(ns.given)
        est = complexity.h_relative_upper(x, wy, census, ns.budget)
        report = {"kind": "relative", **_estimate_fields(est)}
    else:
        est = complexity.h_upper(x, census, ns.budget)
        report = {"kind": "plain", **_estimate_fields(est)}
    report["subject"] = sexpr.print_canonical(x)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="halting probabilities and program-size complexity, desk scale",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and canonically print expressions")
    p.add_argument("--expr")
    p.add_argument("--file")

    p = sub.add_parser("eval", help="evaluate a program against a tape")
    p.add_argument("--expr")
    p.add_argument("--file")
    p.add_argument("--prelude", help="file of define forms loaded first")
    p.add_argument("--tape", default="")
    p.add_argument("--tape-file", help="read the tape bits from a file")
    p.add_argument("--budget", type=int, default=machine.DEFAULT_BUDGET)

    p = sub.add_parser("encode", help="pack program text and data bits")
    p.add_argument("--expr")
    p.add_argument("--file")
    p.add_argument("--data", default="")
    p.add_argument("--out", help="write the program file here")

    p = sub.add_parser("run", help="decode and run a binary program")
    p.add_argument("--program", help="program file (bits: N header + hex)")
    p.add_argument("--bits", help="inline 0/1 string")
    p.add_argument("--budget", type=int, default=machine.DEFAULT_BUDGET)

    p = sub.add_parser("enumerate", help="stream decodable programs by size")
    p.add_argument("--max-bits", type=int, required=True)
    p.add_argument("--limit", type=_at_least(0))

    p = sub.add_parser("census", help="create or resume a dovetail census")
    p.add_argument("--stages", type=_at_least(0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--max-bits", type=int, default=24)

    p = sub.add_parser("omega", help="exact halting-probability lower bound")
    p.add_argument("--census", required=True)
    p.add_argument("--bits", type=int, default=None, help="expansion width")
    p.add_argument("--decide-bits", type=int, default=None,
                   help="also classify all programs up to this size")
    p.add_argument("--stage-cap", type=_at_least(0), default=64)
    p.add_argument("--jobs", type=_at_least(1), default=1)

    p = sub.add_parser("complexity", help="upper-bound information content")
    p.add_argument("--of", required=True, help="expression file")
    p.add_argument("--joint", help="second expression file for a pair query")
    p.add_argument("--given", help="witness program file for a relative query")
    p.add_argument("--census")
    p.add_argument("--budget", type=int, default=complexity.DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("diag", help="diagonal digits against enumerated programs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)

    p = sub.add_parser("theory", help="run a statement-generator program")
    p.add_argument("--program", required=True)
    p.add_argument("--budget", type=int, required=True)
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

_DOMAIN_EXCEPTIONS = (
    sexpr.SExprError,
    dovetail.VersionMismatch,
    dovetail.CorruptFile,
    dovetail.StageCapExceeded,
    complexity.NotABitString,
    complexity.InvalidWitness,
    _DomainError,
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
        variant = exc.variant if isinstance(exc, _DomainError) else type(exc).__name__
        print(f"error {variant}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
