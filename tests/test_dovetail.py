"""Enumeration, the dovetail schedule, and the halting census."""

import copy
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import DIVERGER_TEXT
from omegalab import dovetail
from omegalab.dovetail import (
    CorruptFile,
    MIN_PROGRAM_BITS,
    Record,
    STATUS_ABORTED,
    STATUS_HALTED_INVALID,
    STATUS_HALTED_VALID,
    STATUS_UNKNOWN,
    StageCapExceeded,
    VersionMismatch,
    advance,
    decide_halting_via_omega,
    enumerate_programs,
    load_census,
    new_census,
    omega_lower_bound,
    parseable_texts_of_length,
    save_census,
)
from omegalab.dyadic import DyadicRational
from omegalab.evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    program_head,
)
from omegalab.machine import (
    BinaryProgram,
    DecodedProgram,
    decode_program,
    encode_text,
    run_program,
)
from omegalab.sexpr import print_canonical


def brute_force_decodable(max_bits):
    """Oracle: push every bit string of every length through the decoder."""
    found = set()
    for length in range(max_bits + 1):
        for value in range(1 << length):
            bits = format(value, f"0{length}b") if length else ""
            if isinstance(decode_program(bits), DecodedProgram):
                found.add(bits)
    return found


def test_enumerate_matches_brute_force_at_16_bits():
    enumerated = [p.bits for p in enumerate_programs(16)]
    assert len(set(enumerated)) == len(enumerated), "duplicates"
    assert set(enumerated) == brute_force_decodable(16)
    # exactly the single-character parseable prefixes
    assert len(enumerated) == len(parseable_texts_of_length(1)) == 91


def test_enumerate_below_minimum_is_empty():
    assert list(enumerate_programs(15)) == []


def test_enumerate_yields_decodable_programs_in_size_then_lex_order():
    programs = [p.bits for p in enumerate_programs(18)]
    keys = [(len(b), b) for b in programs]
    assert keys == sorted(keys)
    for bits in programs[::7]:
        assert isinstance(decode_program(bits), DecodedProgram)


def test_enumerate_min_bits_window():
    full = [p.bits for p in enumerate_programs(18)]
    window = [p.bits for p in enumerate_programs(18, min_bits=17)]
    assert window == [b for b in full if len(b) >= 17]


def test_census_requires_room_for_one_program():
    with pytest.raises(ValueError):
        new_census(MIN_PROGRAM_BITS - 1)


def test_first_stage_covers_17_bits_at_budget_two():
    census = advance(new_census(24), 1)
    assert census.stage == 1
    sizes = {len(bits) for bits in census.records}
    assert sizes == {16, 17}
    expected = {p.bits for p in enumerate_programs(17)}
    assert set(census.records) == expected
    for record in census.records.values():
        # at budget 2 every one of these programs is already decided
        assert record.decided


def test_advance_twice_by_one_equals_once_by_two():
    a = advance(advance(new_census(20), 1), 1)
    b = advance(new_census(20), 2)
    assert a == b


def test_statuses_never_change_once_decided():
    census = advance(new_census(20), 3)
    snapshot = {
        bits: (r.status, r.steps, r.value_text)
        for bits, r in census.records.items()
        if r.decided
    }
    advance(census, 4)
    for bits, fields in snapshot.items():
        record = census.records[bits]
        assert (record.status, record.steps, record.value_text) == fields


def test_parallel_jobs_match_sequential_on_desk_corpus():
    sequential = advance(new_census(24), 12, jobs=1)
    parallel = advance(new_census(24), 12, jobs=2)
    assert sequential == parallel
    from collections import Counter

    counts = Counter(r.status for r in parallel.records.values())
    assert counts == Counter(r.status for r in sequential.records.values())


def test_advance_opens_one_process_pool_for_all_stages(monkeypatch):
    made = []

    class CountingPool(dovetail.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dovetail, "ProcessPoolExecutor", CountingPool)
    parallel = advance(new_census(20), 3, jobs=2)
    assert len(made) == 1
    assert parallel == advance(new_census(20), 3, jobs=1)


def test_advance_rejects_foreign_census():
    census = new_census(20)
    census.version = "someone-else-1"
    with pytest.raises(VersionMismatch):
        advance(census, 1)


def test_omega_bound_empty_census_is_zero():
    assert omega_lower_bound(new_census(24)) == DyadicRational.zero()


def test_omega_bound_single_valid_halt_weight():
    census = new_census(48)
    program = encode_text("(' a)")  # 48 bits
    census.records[program.bits] = Record(
        program.bits, STATUS_HALTED_VALID, 1, "a"
    )
    assert omega_lower_bound(census) == DyadicRational.half_power(48)


def test_omega_bound_equals_the_per_record_fraction_sum():
    rng = random.Random(20020)
    statuses = [
        STATUS_HALTED_VALID, STATUS_HALTED_INVALID, STATUS_ABORTED, STATUS_UNKNOWN
    ]
    for size in [0, 0, 1, 2, 5, 40, 300]:
        census = new_census(64)
        for _ in range(size):
            length = rng.randint(MIN_PROGRAM_BITS, 64)
            bits = format(rng.getrandbits(length), f"0{length}b")
            census.records[bits] = Record(bits, rng.choice(statuses))
        expected = Fraction(0)
        for record in census.records.values():
            if record.status == STATUS_HALTED_VALID:
                expected += Fraction(1, 2 ** len(record.bits))
        assert omega_lower_bound(census) == DyadicRational(expected)


def test_omega_bound_monotone_and_kraft_over_stages():
    census = new_census(22)
    previous = omega_lower_bound(census)
    one = DyadicRational.half_power(0)
    for _ in range(8):
        advance(census, 1)
        bound = omega_lower_bound(census)
        assert previous <= bound <= one
        previous = bound
    assert previous > DyadicRational.zero()


def test_valid_halts_prefix_free_at_every_stage():
    from omegalab.machine import prefix_free_violation

    census = new_census(22)
    for _ in range(7):
        advance(census, 1)
        valid = [
            bits
            for bits, r in census.records.items()
            if r.status == STATUS_HALTED_VALID
        ]
        assert prefix_free_violation(valid) is None


def test_desk_census_known_composition(desk_census):
    # 91 one-char and 9101 two-char texts; data-carrying variants all halt
    # without reading, so exactly the zero-data programs halt validly
    records = desk_census.records
    assert len(records) == 91 * 511 + 9101
    from collections import Counter

    statuses = Counter(r.status for r in records.values())
    assert statuses[STATUS_HALTED_VALID] == 91 + 9101
    assert statuses[STATUS_HALTED_INVALID] == len(records) - 9192
    assert statuses[STATUS_ABORTED] == statuses[STATUS_UNKNOWN] == 0
    expected = Fraction(91, 2**16) + Fraction(9101, 2**24)
    assert omega_lower_bound(desk_census).fraction == expected


def test_decide_zero_prefix_stops_immediately():
    census = new_census(20)
    decision = decide_halting_via_omega(DyadicRational.zero(), 17, census)
    assert decision.stop_stage == 0
    assert decision.halting == ()
    assert len(decision.not_halting_relative) == len(
        list(enumerate_programs(17))
    )


def test_decide_replays_to_the_first_sufficient_stage():
    # phase one: find the stage where the bound first reaches the target
    big = new_census(20)
    advance(big, 8)
    target = omega_lower_bound(big).truncate(18)
    reference = new_census(20)
    first_stage = 0
    while omega_lower_bound(reference) < target:
        advance(reference, 1)
        first_stage = reference.stage
    halted_then = {
        bits
        for bits, r in reference.records.items()
        if r.status == STATUS_HALTED_VALID and len(bits) <= 18
    }
    # phase two: the decision procedure stops at that same stage and labels
    # exactly those programs halting
    decision = decide_halting_via_omega(target, 18, new_census(20))
    assert decision.stop_stage == first_stage
    assert set(decision.halting) == halted_then
    assert set(decision.not_halting_relative).isdisjoint(halted_then)


def test_decide_unreachable_prefix_exceeds_cap():
    census = new_census(18)
    with pytest.raises(StageCapExceeded):
        decide_halting_via_omega(
            DyadicRational(Fraction(1, 2)), 18, census, stage_cap=6
        )


def test_decide_rejects_oversized_window():
    with pytest.raises(ValueError):
        decide_halting_via_omega(DyadicRational.zero(), 24, new_census(20))


# SHA-256 of the census files of (max bits, stages): the on-disk contract.
GOLDEN_CENSUS_SHA256 = {
    (20, 6): "181141b9d78a1d51ec233b50f1b7fb31eafeaeafef95f4b5f4db40b1f3ddb331",
    (24, 10): "338453c2b368f9814669f8c9ac709a372d68a5b825c72f55920282f19152656d",
}


def test_census_file_bytes_are_pinned(tmp_path):
    census = advance(new_census(20), 6)
    path = tmp_path / "small.census"
    save_census(census, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CENSUS_SHA256[20, 6]
    assert omega_lower_bound(census) == DyadicRational(Fraction(91, 2**16))


def test_save_load_round_trip(tmp_path, desk_census):
    path = tmp_path / "desk.census"
    save_census(desk_census, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CENSUS_SHA256[24, 10]
    loaded = load_census(path)
    assert loaded == desk_census
    # byte-identical re-save
    again = tmp_path / "again.census"
    save_census(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_save_load_round_trip_mixed_statuses(tmp_path):
    census = new_census(32)
    census.stage = 7
    cases = [
        ("a", STATUS_HALTED_VALID, 3, "(a b)"),
        ("b", STATUS_HALTED_INVALID, 2, "-"),
        ("c", STATUS_ABORTED, 9, None),
        ("d", STATUS_UNKNOWN, 128, None),
    ]
    for i, (_, status, steps, value) in enumerate(cases):
        bits = format(i, "017b")
        census.records[bits] = Record(bits, status, steps, value)
    path = tmp_path / "mixed.census"
    save_census(census, path)
    assert load_census(path) == census


def test_load_rejects_truncated_file(tmp_path, desk_census):
    path = tmp_path / "t.census"
    save_census(desk_census, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(CorruptFile):
        load_census(path)


def test_load_rejects_mangled_records(tmp_path):
    census = advance(new_census(17), 1)
    path = tmp_path / "m.census"
    save_census(census, path)
    text = path.read_text().splitlines()
    text[6] = "zz not hex at all"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(CorruptFile):
        load_census(path)


def test_load_rejects_other_version(tmp_path):
    census = advance(new_census(17), 1)
    path = tmp_path / "v.census"
    save_census(census, path)
    text = path.read_text().replace("omegalab-machine-1", "omegalab-machine-0")
    path.write_text(text)
    with pytest.raises(VersionMismatch):
        load_census(path)


def test_load_rejects_non_census(tmp_path):
    path = tmp_path / "no.census"
    path.write_text("hello\n")
    with pytest.raises(CorruptFile):
        load_census(path)


def test_load_rejects_duplicate_records(tmp_path):
    census = advance(new_census(17), 1)
    path = tmp_path / "dup.census"
    save_census(census, path)
    lines = path.read_text().splitlines()
    lines[7] = lines[6]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptFile):
        load_census(path)


def _forge(tmp_path, edit):
    """Save a small census, let edit() change its lines, fix the count."""
    path = tmp_path / "forged.census"
    save_census(advance(new_census(20), 2), path)
    lines = path.read_text().splitlines()
    edit(lines)
    lines[5] = f"records {len(lines) - 6}"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_forge_helper_keeps_a_valid_file(tmp_path):
    path = _forge(tmp_path, lambda lines: None)
    assert load_census(path) == advance(new_census(20), 2)


def test_load_rejects_max_bits_below_one_program(tmp_path):
    def edit(lines):
        lines[3] = f"max-bits {MIN_PROGRAM_BITS - 1}"

    with pytest.raises(CorruptFile):
        load_census(_forge(tmp_path, edit))


def test_load_rejects_negative_stage(tmp_path):
    def edit(lines):
        lines[4] = "stage -3"

    with pytest.raises(CorruptFile):
        load_census(_forge(tmp_path, edit))


def test_load_rejects_negative_steps(tmp_path):
    def edit(lines):
        hex_text, length, status, _, value = lines[6].split(" ", 4)
        lines[6] = f"{hex_text} {length} {status} -1 {value}"

    with pytest.raises(CorruptFile):
        load_census(_forge(tmp_path, edit))


def test_load_rejects_record_shorter_than_any_program(tmp_path):
    # a one-bit "program" marked halted-valid would add 1/2 to the bound
    def edit(lines):
        lines.append("00 1 halted-valid 3 a")

    with pytest.raises(CorruptFile):
        load_census(_forge(tmp_path, edit))


# --- read paths -------------------------------------------------------------
#
# No enumerated program under 88 bits reads a tape bit, so the census
# suites above never take a branch of a read path.  These records are
# enrolled by hand and checked against one whole-string run each.


def _reference_fields(bits: str, budget: int) -> tuple[str, int, str | None]:
    """Record fields from one run of the whole bit string."""
    result = run_program(BinaryProgram(bits), budget)
    out = result.outcome
    if isinstance(out, Halted):
        status = STATUS_HALTED_VALID if result.valid_halt else STATUS_HALTED_INVALID
        return status, out.steps, print_canonical(out.value)
    if isinstance(out, AbortOverrun):
        return STATUS_ABORTED, out.steps, None
    if isinstance(out, MalformedProgram):
        return STATUS_ABORTED, 0, None
    return STATUS_UNKNOWN, budget, None


def _reference_advance(census, stages: int):
    for _ in range(stages):
        census.stage += 1
        for record in census.records.values():
            if not record.decided:
                fields = _reference_fields(record.bits, 2**census.stage)
                record.status, record.steps, record.value_text = fields
    return census


def _all_data(max_len: int) -> list[str]:
    return [
        format(value, f"0{n}b") if n else ""
        for n in range(max_len + 1)
        for value in range(1 << n)
    ]


READ_PATH_PROGRAMS = [
    ("(read-bit)", 5),
    ("(join (read-bit) (read-bit))", 5),
    ("(if (= (read-bit) 1) (read-bit) a)", 5),
    # reads while it sees 1, halts on the first 0
    ("(define (f) (if (= (read-bit) 1) (f) z)) (f)", 6),
    ("(' a)", 3),
]

RUN_REMAINING_TAPES = [
    program_head("(' a)"),  # a complete embedded program
    program_head("(' a)")[:20],  # ends inside a byte
    "00000001" + "00000000",  # a byte outside the text alphabet
    program_head("(read-bit)") + "1",  # an embedded program with data
    program_head("(read-bit)") + "10",  # and with a bit left over
]


def _read_path_bits() -> list[str]:
    bits = [
        program_head(text) + data
        for text, max_data in READ_PATH_PROGRAMS
        for data in _all_data(max_data)
    ]
    runner = program_head("(run-remaining)")
    for tape in RUN_REMAINING_TAPES:
        bits.extend(runner + tape[:j] for j in range(len(tape) + 1))
    bits += [
        "0110",  # no separator
        "00000001" + "00000000" + "10",  # bad character
        program_head(")") + "1",  # does not parse
        program_head("(' a) (' b)") + "1",  # non-define leading form
    ]
    return list(dict.fromkeys(bits))


# Counts down a quoted list before one read: about 650 steps, so it runs
# out of time at budget 2**9 and is decided at 2**10.
COUNTDOWN_TEXT = (
    "(define (f n) (if (= n ()) (read-bit) (f (tail n)))) (f (' ("
    + " ".join(["x"] * 80)
    + ")))"
)


def _hand_enrolled(max_bits: int, bits: list[str]):
    census = new_census(max_bits)
    census.stage = max_bits - MIN_PROGRAM_BITS  # nothing left to enrol
    for b in bits:
        census.records[b] = Record(b)
    return census


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stages", [1, 3])
def test_read_paths_match_whole_string_runs(jobs, stages):
    census = _hand_enrolled(400, _read_path_bits())
    expected = _reference_advance(copy.deepcopy(census), stages)
    advanced = advance(census, stages, jobs=jobs)
    assert list(advanced.records) == list(expected.records)
    assert advanced == expected
    statuses = {r.status for r in advanced.records.values()}
    assert statuses == {
        STATUS_HALTED_VALID, STATUS_HALTED_INVALID, STATUS_ABORTED
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_read_paths_out_of_time_across_stages(jobs):
    bits = [
        program_head(text) + data
        for text in (COUNTDOWN_TEXT, DIVERGER_TEXT)
        for data in _all_data(3)
    ]
    census = _hand_enrolled(24, bits)
    expected = copy.deepcopy(census)
    for stage in range(3):
        advance(census, 1, jobs=jobs)
        _reference_advance(expected, 1)
        assert census == expected
        counts = Counter(r.status for r in census.records.values())
        if stage == 0:
            assert counts == {STATUS_UNKNOWN: len(bits)}
        else:
            assert counts[STATUS_HALTED_VALID] == 2  # the countdown, one data bit
