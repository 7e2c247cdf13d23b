"""The three workloads: seeded inputs, timed operations and golden checks.

Each workload builds a list of rounds from a seeded generator.  A round
is a fixed mix of operation shapes, so every round (and every seed) does
the same kind and amount of work; only the contents and the order change.
An operation is timed alone.  Its output is checked after the timed phase
against values pinned from the seed commit or derived in closed form, so
a speed-up that changes an answer counts as a failure, not as a gain.

All library calls go through omegalab's public modules.  Program bits are
built here from their text, so input generation does not depend on the
code being measured, except where a workload is defined by a library call
(``complexity.pair_programs``, the census build of ``queries``).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from omegalab import cli, complexity, dovetail, incompleteness, machine

EVAL_BUDGET = 10**8
QUERY_BUDGET = 1 << 16
THEORY_BUDGET = 1 << 16

# --- shared helpers -----------------------------------------------------


def canon(x) -> str:
    """Canonical text of an expression (single spaces, no other blanks)."""
    if type(x) is str:
        return x
    return "(" + " ".join(canon(e) for e in x) + ")"


def program_bits(text: str, data: str = "") -> str:
    """8-bit characters, the 0x00 separator byte, then the data bits."""
    return "".join(f"{ord(c):08b}" for c in text) + "00000000" + data


def literal_bits(x) -> int:
    """Size of the quoting program (' x), the always-available witness."""
    return 8 * len("(' " + canon(x) + ")") + 8


@dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``check(result)`` returns
    a failure message or None, ``work(result)`` the work units done."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    work: Callable[[Any], int] = lambda _result: 1
    signature: Callable[[Any], Any] = lambda _result: None


@dataclass
class Workload:
    rounds: list[list[Op]]
    # Counts that must be equal in every traced round of this workload.
    round_invariant_counts: tuple[str, ...] = ()
    cleanup: list[str] = field(default_factory=list)
    # Golden checks of set-up that failed; each counts as a failed operation.
    setup_failures: list[str] = field(default_factory=list)


def _run_check(result, value, bits_consumed: int, steps: int) -> str | None:
    out = result.outcome
    if not result.valid_halt:
        return f"no valid halt: {type(out).__name__}"
    if out.steps != steps:
        return f"steps {out.steps} != {steps}"
    if out.bits_consumed != bits_consumed:
        return f"bits_consumed {out.bits_consumed} != {bits_consumed}"
    if out.value != value:
        return "value differs from the closed form"
    return None


# --- census ---------------------------------------------------------------

CENSUS_BITS = 24
CENSUS_STAGES = 10
# Pinned from the seed commit.
CENSUS_GOLDEN = {
    (24, 10): ("338453c2b368f9814669f8c9ac709a372d68a5b825c72f55920282f19152656d", 55602),
    (26, 12): ("0592b013d1b6b5ec4b276f09091905502835f0b960704906abd061263d9f2408", 249984),
    (28, 12): (None, 1027512),
}
OMEGA_FRACTION = "32397/2^24"
OMEGA_DECIDE = {"n_bits": 20, "target": "253/2^17", "halting": 91,
                "not_halting_relative": 2730}


def _report_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            fields[key] = value
    return fields


def census(rng: random.Random, n_rounds: int, out_dir: str) -> Workload:
    """One census-and-omega pair per round, through the command line."""
    del rng  # the census has no free inputs; the seed is only recorded
    path = os.path.join(out_dir, f"census-{os.getpid()}.txt")
    golden_sha, golden_records = CENSUS_GOLDEN[(CENSUS_BITS, CENSUS_STAGES)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc_census = cli.main([
                "census", "--max-bits", str(CENSUS_BITS), "--stages",
                str(CENSUS_STAGES), "--jobs", "1", "--out", path,
            ])
            rc_omega = cli.main([
                "omega", "--census", path, "--bits", "64", "--decide-bits", "20",
            ])
        return rc_census, rc_omega, _report_fields(buf.getvalue())

    def decided(result) -> int:
        fields = result[2]
        statuses = ast.literal_eval(fields.get("statuses", "{}"))
        return int(fields.get("records", 0)) - statuses.get("unknown", 0)

    def check(result):
        rc_census, rc_omega, fields = result
        if (rc_census, rc_omega) != (0, 0):
            return f"exit codes {rc_census}, {rc_omega}"
        if int(fields["records"]) != golden_records:
            return f"records {fields['records']} != {golden_records}"
        if fields["omega_lower_bound"] != OMEGA_FRACTION:
            return f"census bound {fields['omega_lower_bound']}"
        if fields["fraction"] != OMEGA_FRACTION:
            return f"omega bound {fields['fraction']}"
        decision = ast.literal_eval(fields["decide"])
        for key, want in OMEGA_DECIDE.items():
            if decision.get(key) != want:
                return f"decide {key} {decision.get(key)!r} != {want!r}"
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if golden_sha is not None and digest != golden_sha:
            return f"census file sha256 {digest}"
        return None

    op = Op("census", run, check, decided,
            lambda result: [result[2].get("records"), result[2].get("statuses")])
    return Workload(
        [[op] for _ in range(n_rounds)],
        ("evaluator.steps", "dovetail.runs", "machine.decode.calls",
         "sexpr.parse.calls", "dovetail.enumerate.programs"),
        [path],
    )


# --- eval-deep ------------------------------------------------------------

BITLOOP_TEXT = "(define (loop x) (if (= (read-bit) 1) (loop (read-bit)) x)) (loop (' {tag}))"
REVERSE_TEXT = (
    "(define (rev l a) (if (= l ()) a (rev (tail l) (join (head l) a))))"
    " (rev (' {items}) ())"
)
MAP_TEXT = (
    "(define (map f l) (if (= l ()) () (join (f (head l)) (map f (tail l)))))"
    " (define (compose f g) (lambda (x) (f (g x))))"
    " (map (compose (lambda (x) (join x ())) (lambda (y) (join y (' (z)))))"
    " (' {items}))"
)
# The paper's set membership, asked for an atom that is not in the list.
IN_SET_TEXT = (
    "(define (in-set? member set) (if (= () set) false"
    " (if (= member (head set)) true (in-set? member (tail set)))))"
    " (in-set? (' absent) (' {items}))"
)
# Emits (omega-bit (1 ... 1) 0) with a growing unary position, forever.
THEORY_TEXT = (
    "(define (go n) (go (join 1 (head (tail "
    "(display (join omega-bit (join n (join 0 ())))))))))"
    " (go (' (1)))"
)
ITEM_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"

# Step counts are part of the machine contract; pinned from the seed commit.
# Shape -> (a, b): a run over n items or data bits takes a*n + b steps.
STEPS = {"bitloop": (7, 9), "reverse": (12, 10), "map": (25, 15), "in-set": (14, 10)}
PAIR_WRAPPER_STEPS = 5
THEORY_STATEMENTS = 4680

# One round: 25 operations, about 4.5 s on a 2-core x86-64 host.
EVAL_DEEP_ROUND = (
    [("bitloop", 4000)] * 6
    + [("reverse", n) for n in (1000, 2000, 4000, 8000)]
    + [("map", 500)] * 6
    + [("in-set", 2000)] * 4
    + [("pair", 500)] * 4
    + [("theory", THEORY_BUDGET)]
)


def _steps(kind: str, n: int) -> int:
    a, b = STEPS[kind]
    return a * n + b


def _items(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(rng.choice(ITEM_CHARS) for _ in range(n))


def _bitloop(rng: random.Random, n: int, tag: str):
    data_bits = [rng.choice("01") for _ in range(n)]
    data = "".join("1" + b for b in data_bits) + "0"
    program = machine.BinaryProgram(program_bits(BITLOOP_TEXT.format(tag=tag), data))
    return program, data_bits[-1], len(data), _steps("bitloop", n)


def _reverse(rng: random.Random, n: int):
    items = _items(rng, n)
    program = machine.BinaryProgram(program_bits(REVERSE_TEXT.format(items=canon(items))))
    return program, items[::-1], 0, _steps("reverse", n)


def _run_op(kind: str, program, value, bits_consumed: int, steps: int) -> Op:
    return Op(
        kind,
        lambda: machine.run_program(program, EVAL_BUDGET),
        lambda result: _run_check(result, value, bits_consumed, steps),
        lambda result: result.outcome.steps,
        lambda result: [result.outcome.steps, result.outcome.bits_consumed],
    )


def _theory_op() -> Op:
    program = machine.BinaryProgram(program_bits(THEORY_TEXT))

    def check(run):
        if run.terminal != "out-of-time" or run.budget_consumed != THEORY_BUDGET:
            return f"theory ended {run.terminal} after {run.budget_consumed}"
        if len(run.theorems) != THEORY_STATEMENTS or any(
            statement != ("omega-bit", ("1",) * k, "0")
            for k, statement in enumerate(run.theorems, start=1)
        ):
            return f"theory emitted {len(run.theorems)} statements, not the pinned stream"
        return None

    return Op(
        "theory",
        lambda: incompleteness.run_theory(program, THEORY_BUDGET),
        check,
        lambda run: run.budget_consumed,
        lambda run: [run.budget_consumed, len(run.theorems)],
    )


def eval_deep(rng: random.Random, n_rounds: int, out_dir: str) -> Workload:
    """Deep single programs at budget 10^8: the evaluator's per-step cost."""
    del out_dir
    rounds = []
    for r in range(n_rounds):
        shapes = list(EVAL_DEEP_ROUND)
        rng.shuffle(shapes)
        ops = []
        for i, (kind, n) in enumerate(shapes):
            if kind == "bitloop":
                ops.append(_run_op(kind, *_bitloop(rng, n, f"r{r}o{i}")))
            elif kind == "reverse":
                ops.append(_run_op(kind, *_reverse(rng, n)))
            elif kind == "map":
                items = _items(rng, n)
                program = machine.BinaryProgram(
                    program_bits(MAP_TEXT.format(items=canon(items))))
                value = tuple(((a, "z"),) for a in items)
                ops.append(_run_op(kind, program, value, 0, _steps(kind, n)))
            elif kind == "in-set":
                program = machine.BinaryProgram(
                    program_bits(IN_SET_TEXT.format(items=canon(_items(rng, n)))))
                ops.append(_run_op(kind, program, "false", 0, _steps(kind, n)))
            elif kind == "pair":
                p, p_value, _, p_steps = _bitloop(rng, n, f"r{r}o{i}")
                q, q_value, _, q_steps = _reverse(rng, n)
                program = complexity.pair_programs(p, q)
                ops.append(_run_op(
                    kind, program, (p_value, q_value),
                    len(p.bits) + len(q.bits),
                    p_steps + q_steps + PAIR_WRAPPER_STEPS,
                ))
            else:
                ops.append(_theory_op())
        rounds.append(ops)
    return Workload(rounds, ("evaluator.steps", "machine.decode.calls"))


# --- queries --------------------------------------------------------------

QUERY_CENSUS_BITS = 24
QUERY_CENSUS_STAGES = 10
QUERY_CENSUS_SHA = CENSUS_GOLDEN[(QUERY_CENSUS_BITS, QUERY_CENSUS_STAGES)][0]
# Wrapper texts of the seed commit's constructed witnesses.
PAIR_WRAPPER = "(join (run-remaining) (join (run-remaining) ()))"
DUP_WRAPPER = "((lambda (v) (join v (join v ()))) (run-remaining))"
DIAGONAL_ROWS = 50
DIAGONAL_BUDGET = 1 << 12
# Pinned from the seed commit: rows 13-22 are the digit programs 0-9.
DIAGONAL_PRODUCED = (None,) * 12 + tuple(range(10)) + (None,) * 28

QUERIES_ROUND = (
    [("h_upper", "hit")] * 4 + [("h_upper", "miss")] * 4
    + [("h_joint_upper", "hit")] * 2 + [("h_joint_upper", "miss")] * 2
    + [("mutual_info_estimate", "hit")] * 2 + [("mutual_info_estimate", "miss")] * 2
    + [("randomness_report", "miss")] * 4
    + [("h_relative_upper", "hit"), ("h_relative_upper", "miss")]
    + [("pair_programs", "hit")] * 2 + [("pair_programs", "miss")] * 2
    + [("diagonal_table", "miss")]
)


class _Oracle:
    """Closed-form bounds over the loaded census, for checking answers.

    An index from value text to the smallest validly halting program
    stands in for the census scan; the constructed candidates are the
    ones the seed commit's estimators admit.
    """

    def __init__(self, loaded) -> None:
        self.best: dict[str, str] = {}
        for record in loaded.records.values():
            if record.status == dovetail.STATUS_HALTED_VALID:
                known = self.best.get(record.value_text)
                if known is None or len(record.bits) < len(known):
                    self.best[record.value_text] = record.bits

    def h(self, x) -> int:
        found = self.best.get(canon(x))
        return min(literal_bits(x), len(found) if found else literal_bits(x))

    def joint(self, x, y) -> int:
        bound = min(self.h((x, y)), 8 * len(PAIR_WRAPPER) + 8 + self.h(x) + self.h(y))
        if x == y:
            bound = min(bound, 8 * len(DUP_WRAPPER) + 8 + self.h(x))
        return bound


def _rerun_failure(witness, subject) -> str | None:
    result = machine.run_program(witness, QUERY_BUDGET)
    if not result.valid_halt:
        return "witness does not halt validly"
    if result.outcome.value != subject:
        return "witness value differs from the subject"
    return None


def _estimate_op(kind: str, call, subject, want_bits: int) -> Op:
    def check(est):
        if est.bound_bits != want_bits or len(est.witness.bits) != want_bits:
            return f"{kind} bound {est.bound_bits} != {want_bits}"
        return _rerun_failure(est.witness, subject)

    return Op(kind, call, check, signature=lambda est: est.bound_bits)


def queries(rng: random.Random, n_rounds: int, out_dir: str) -> Workload:
    """A seeded stream of complexity queries against a census it only reads."""
    path = os.path.join(out_dir, f"queries-census-{os.getpid()}.txt")
    built = dovetail.advance(
        dovetail.new_census(QUERY_CENSUS_BITS), QUERY_CENSUS_STAGES)
    dovetail.save_census(built, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    setup_failures = []
    if digest != QUERY_CENSUS_SHA:
        setup_failures.append(f"query census sha256 {digest} != {QUERY_CENSUS_SHA}")
    loaded = dovetail.load_census(path)
    oracle = _Oracle(loaded)
    hit_texts = sorted(oracle.best)

    def subject(kind: str):
        """A value and a program that halts validly with it: a census value
        and its smallest program, or a fresh value and its literal."""
        if kind == "hit":
            text = rng.choice(hit_texts)
            # Census values are atoms and the empty list.
            value = () if text == "()" else text
            return value, machine.BinaryProgram(oracle.best[text])
        if rng.random() < 0.5:
            value = "".join(rng.choice(ITEM_CHARS) for _ in range(rng.randint(3, 6)))
        else:
            value = _items(rng, rng.randint(2, 4))
        return value, machine.BinaryProgram(program_bits("(' " + canon(value) + ")"))

    def make(fn: str, kind: str) -> Op:
        x, wx = subject(kind)
        y, wy = subject(kind)
        if fn == "h_upper":
            return _estimate_op(fn, lambda: complexity.h_upper(x, loaded), x, oracle.h(x))
        if fn == "h_joint_upper":
            return _estimate_op(
                fn, lambda: complexity.h_joint_upper(x, y, loaded), (x, y),
                oracle.joint(x, y))
        if fn == "mutual_info_estimate":
            want = oracle.h(x) + oracle.h(y) - oracle.joint(x, y)
            return Op(
                fn, lambda: complexity.mutual_info_estimate(x, y, loaded),
                lambda got: None if got == want else f"mutual info {got} != {want}",
                signature=lambda got: got)
        if fn == "h_relative_upper":
            # The given program is the census witness of a hit; it only
            # helps when its value is the subject itself.
            want = min(oracle.h(x), len(wy.bits)) if y == x else oracle.h(x)
            return _estimate_op(
                fn, lambda: complexity.h_relative_upper(x, wy, loaded), x, want)
        if fn == "pair_programs":
            return _pair_op(wx, wy, (x, y))
        if fn == "randomness_report":
            return _randomness_op(tuple(rng.choice("01") for _ in range(16)), loaded, oracle)
        return _diagonal_op()

    rounds = []
    for _ in range(n_rounds):
        shapes = list(QUERIES_ROUND)
        rng.shuffle(shapes)
        rounds.append([make(fn, kind) for fn, kind in shapes])
    return Workload(rounds, (), [path], setup_failures)


def _randomness_op(bits: tuple, loaded, oracle: _Oracle) -> Op:
    n = len(bits)

    def check(report):
        lit = literal_bits(bits)
        bound = oracle.h(bits)
        want = (bound, lit, lit - n, n - (bound - (lit - n)), bound < lit)
        got = (report.bound_bits, report.literal_bits, report.overhead_bits,
               report.deficiency_bits, report.compressible)
        if got != want:
            return f"randomness report {got} != {want}"
        return _rerun_failure(report.witness, bits)

    return Op("randomness_report", lambda: complexity.randomness_report(bits, loaded),
              check, signature=lambda report: report.bound_bits)


def _pair_op(p, q, value) -> Op:
    want_bits = 8 * len(PAIR_WRAPPER) + 8 + len(p.bits) + len(q.bits)

    def check(program):
        if len(program.bits) != want_bits:
            return f"pair size {len(program.bits)} != {want_bits}"
        return _rerun_failure(program, value)

    return Op("pair_programs", lambda: complexity.pair_programs(p, q), check,
              signature=lambda program: len(program.bits))


def _diagonal_op() -> Op:
    def check(table):
        produced = tuple(row.produced for row in table.rows)
        digits = tuple(2 if p == 3 else 3 for p in DIAGONAL_PRODUCED)
        if produced != DIAGONAL_PRODUCED or table.digits != digits:
            return "diagonal table differs from the pinned rows"
        return None

    return Op("diagonal_table",
              lambda: incompleteness.diagonal_table(DIAGONAL_ROWS, DIAGONAL_BUDGET),
              check, signature=lambda table: "".join(map(str, table.digits)))


WORKLOADS = {"census": census, "eval-deep": eval_deep, "queries": queries}
