"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The slow criteria (the brute-force enumeration oracle
and the exhaustive prefix-freeness sweep) take a few minutes together and
carry the ``slow`` marker; everything is deterministic, no tolerances
beyond those stated.
"""

import random
import time
from contextlib import contextmanager

import pytest

from conftest import IN_SET_TEXT, random_expr, random_sexpr, random_tape
from omegalab.complexity import pair_overhead_bits, pair_programs
from omegalab.dovetail import (
    Record,
    STATUS_HALTED_VALID,
    advance,
    decide_halting_via_omega,
    enumerate_programs,
    load_census,
    new_census,
    omega_lower_bound,
    save_census,
)
from omegalab.dyadic import DyadicRational
from omegalab.evaluator import BitTape, Halted, OutOfTime, evaluate
from omegalab.incompleteness import diagonal_table, digit_program_output
from omegalab.machine import (
    BinaryProgram,
    DecodedProgram,
    decode_program,
    encode_program,
    prefix_free_violation,
    run_program,
)
from omegalab.sexpr import parse, print_canonical, print_program

SEED = 20260809


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number} PASS - {title}")


# --- criteria ---------------------------------------------------------------


def test_criterion_1_paper_example_fidelity():
    with criterion(1, "set-membership program yields true/false"):
        started = time.perf_counter()
        member = evaluate(
            parse(IN_SET_TEXT + "(in-set? (' y) (' (x y z)))"), BitTape(), 4096
        )
        non_member = evaluate(
            parse(IN_SET_TEXT + "(in-set? (' q) (' (x y z)))"), BitTape(), 4096
        )
        elapsed = time.perf_counter() - started
        assert isinstance(member, Halted) and member.value == "true"
        assert isinstance(non_member, Halted) and non_member.value == "false"
        assert elapsed < 1.0


@pytest.mark.slow
def test_criterion_2_enumeration_oracle_equivalence():
    with criterion(2, "enumeration equals brute force at 24 bits"):
        enumerated = set()
        for program in enumerate_programs(24):
            assert program.bits not in enumerated, "duplicate yield"
            enumerated.add(program.bits)
        brute = set()
        for length in range(25):
            base = format(0, f"0{length}b") if length else ""
            for value in range(1 << length):
                bits = format(value, f"0{length}b") if length else base
                if isinstance(decode_program(bits), DecodedProgram):
                    brute.add(bits)
        assert enumerated == brute


def test_criterion_3_kraft_and_monotone_bound():
    with criterion(3, "omega bound nondecreasing, exact, <= 1, final > 0"):
        census = new_census(24)
        one = DyadicRational.half_power(0)
        previous = omega_lower_bound(census)
        assert previous == DyadicRational.zero()
        for _ in range(20):
            advance(census, 1)
            bound = omega_lower_bound(census)
            assert isinstance(bound, DyadicRational)
            den = bound.fraction.denominator
            assert den & (den - 1) == 0, "bound is not exactly dyadic"
            assert previous <= bound <= one
            previous = bound
        assert census.stage == 20
        assert previous > DyadicRational.zero()
        empty_list_program = encode_program(((),), "")
        record = census.records[empty_list_program.bits]
        assert len(empty_list_program.bits) == 24
        assert record.status == STATUS_HALTED_VALID


@pytest.mark.slow
def test_criterion_4_prefix_freeness_exhaustive():
    with criterion(4, "valid-halt domain is prefix-free through 32 bits"):
        valid = []
        budget = 1 << 12
        for program in enumerate_programs(32):
            result = run_program(program, budget)
            assert not isinstance(
                result.outcome, OutOfTime
            ), f"undecided program {program.hex} leaves the check inexhaustive"
            if result.valid_halt:
                valid.append(program.bits)
        assert len(valid) > 0
        assert prefix_free_violation(valid) is None


def test_criterion_5_constructive_subadditivity(desk_census):
    with criterion(5, "pairing adds one exact constant, 100 fuzzed pairs"):
        rng = random.Random(SEED)
        overhead = pair_overhead_bits()
        valid = [
            bits
            for bits, record in desk_census.records.items()
            if record.status == STATUS_HALTED_VALID
        ]
        values = {
            bits: desk_census.records[bits].value_text for bits in valid
        }
        for _ in range(100):
            p = BinaryProgram(rng.choice(valid))
            q = BinaryProgram(rng.choice(valid))
            paired = pair_programs(p, q, budget=1 << 16)
            assert len(paired.bits) - len(p.bits) - len(q.bits) == overhead
            result = run_program(paired, 1 << 16)
            assert result.valid_halt
            joint = result.outcome.value
            assert isinstance(joint, tuple) and len(joint) == 2
            assert print_canonical(joint[0]) == values[p.bits]
            assert print_canonical(joint[1]) == values[q.bits]


def test_criterion_6_schedule_independence(tmp_path):
    with criterion(6, "census bytes identical for --jobs 8 and --jobs 1"):
        sequential = advance(new_census(20), 6, jobs=1)
        parallel = advance(new_census(20), 6, jobs=8)
        a = tmp_path / "jobs1.census"
        b = tmp_path / "jobs8.census"
        save_census(sequential, a)
        save_census(parallel, b)
        assert a.read_bytes() == b.read_bytes()


def test_criterion_7_diagonal_disagreement():
    with criterion(7, "diagonal digit differs wherever a digit was produced"):
        budget = 1 << 12
        table = diagonal_table(50, budget)
        assert len(table.rows) == 50
        produced_rows = 0
        for row in table.rows:
            assert row.diagonal_digit in (2, 3)
            replay = digit_program_output(row.index, row.index, budget)
            assert replay == row.produced
            if row.produced is not None:
                produced_rows += 1
                assert row.diagonal_digit != row.produced
        assert produced_rows > 0, "no digits at all: vacuous diagonal"


def test_criterion_8_omega_prefix_decision_self_consistency():
    with criterion(8, "bound-chasing halting decision replays exactly"):
        t_big = 24
        n_bits = 20
        big = advance(new_census(24), t_big)
        target = omega_lower_bound(big).truncate(n_bits)
        assert target > DyadicRational.zero()

        reference = new_census(24)
        while omega_lower_bound(reference) < target:
            advance(reference, 1)
            assert reference.stage <= t_big
        first_stage = reference.stage
        halted_then = {
            bits
            for bits, record in reference.records.items()
            if record.status == STATUS_HALTED_VALID and len(bits) <= n_bits
        }

        decision = decide_halting_via_omega(
            target, n_bits, new_census(24), stage_cap=t_big
        )
        assert decision.stop_stage == first_stage
        assert set(decision.halting) == halted_then
        assert set(decision.not_halting_relative).isdisjoint(halted_then)
        universe = {p.bits for p in enumerate_programs(n_bits)}
        assert set(decision.halting) | set(decision.not_halting_relative) == universe


def test_criterion_9_budget_monotonicity_fuzzed():
    with criterion(9, "1000 fuzzed pairs: halts replay at 2x and 4x budget"):
        rng = random.Random(SEED)
        halted = 0
        for _ in range(1000):
            program = (random_expr(rng, 3),)
            tape = BitTape(random_tape(rng))
            budget = 1
            outcome = None
            while budget <= (1 << 14):
                outcome = evaluate(program, tape, budget)
                if isinstance(outcome, Halted):
                    break
                budget *= 2
            if not isinstance(outcome, Halted):
                continue
            halted += 1
            for factor in (2, 4):
                again = evaluate(program, tape, factor * budget)
                assert isinstance(again, Halted)
                assert again.value == outcome.value
                assert again.bits_consumed == outcome.bits_consumed
                assert again.steps == outcome.steps
        assert halted >= 800, f"only {halted}/1000 halted: fuzzer too divergent"


def test_criterion_10_round_trip_suites(tmp_path, desk_census):
    with criterion(10, "parse/print, encode/decode, save/load all lossless"):
        rng = random.Random(SEED)
        # s-expressions
        for _ in range(400):
            x = random_sexpr(rng, 4)
            assert parse(print_canonical(x)) == (x,)
        # programs
        for _ in range(400):
            exprs = tuple(
                random_sexpr(rng, 3) for _ in range(rng.randrange(1, 4))
            )
            data = random_tape(rng)
            program = encode_program(exprs, data)
            decoded = decode_program(program)
            assert isinstance(decoded, DecodedProgram)
            assert decoded.prefix == exprs
            assert decoded.data == data
            assert decoded.text == print_program(exprs)
        # censuses: the desk corpus and synthetic mixed-status ones
        path = tmp_path / "rt.census"
        save_census(desk_census, path)
        assert load_census(path) == desk_census
        for i in range(20):
            census = new_census(32)
            census.stage = rng.randrange(0, 30)
            for _ in range(rng.randrange(0, 40)):
                program = encode_program(
                    (random_sexpr(rng, 2),), random_tape(rng)
                )
                status = rng.choice(
                    ["halted-valid", "halted-invalid", "aborted", "unknown"]
                )
                value = (
                    print_canonical(random_sexpr(rng, 2))
                    if status.startswith("halted")
                    else None
                )
                census.records[program.bits] = Record(
                    program.bits, status, rng.randrange(0, 1 << 20), value
                )
            save_census(census, path)
            assert load_census(path) == census
