"""Enumeration, the dovetail schedule, and the halting census."""

import copy
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import reference_dovetail
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
    bits_to_hex,
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
    window = [head + data for head, data in dovetail._heads_and_data(18, 17)]
    assert window == [b for b in full if len(b) >= 17]


def test_enumeration_splits_each_program_where_the_decoder_does():
    pairs = list(dovetail._heads_and_data(22))
    assert len(pairs) == 11557
    for head, data in pairs:
        assert decode_program(head + data).data == data, (head, data)
    assert list(enumerate_programs(22)) == [BinaryProgram(h + d) for h, d in pairs]


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


def test_advance_by_zero_stages_runs_nothing(monkeypatch):
    census = advance(new_census(20), 3)
    before = copy.deepcopy(census)
    runs = _counting_runs(monkeypatch)
    assert advance(census, 0) is census
    assert census == before
    assert runs == []
    census.version = "someone-else-1"
    with pytest.raises(VersionMismatch):
        advance(census, 0)


def _counting_runs(monkeypatch) -> list:
    """The bit string of every run the dovetail makes, through its one run
    entry ``_run_path`` (which decodes with ``run_program`` only heads it
    did not enrol)."""
    runs = []
    run_path = dovetail._run_path

    def counted(bits, *args):
        runs.append(bits)
        return run_path(bits, *args)

    monkeypatch.setattr(dovetail, "_run_path", counted)
    return runs


@pytest.mark.parametrize("max_bits, stages", [(24, 10), (28, 12)])
def test_advance_runs_each_head_once(max_bits, stages, monkeypatch, tmp_path):
    """One pass at the last stage's budget: no program under 88 bits reads a
    bit, so each of the 9,192 heads of at most two characters runs once with
    no data, however many stages and data extensions the call covers."""
    runs = _counting_runs(monkeypatch)
    census = advance(new_census(max_bits), stages)
    assert len(runs) == len(set(runs)) == 9192
    path = tmp_path / "c.census"
    save_census(census, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CENSUS_SHA256[max_bits, stages]


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


@pytest.mark.parametrize("make", [
    lambda: new_census(24),
    lambda: advance(new_census(20), 6),
    lambda: _with_held_records(),
    lambda: advance(_hand_enrolled(400, _read_path_bits()), 1),
    lambda: advance(_out_of_time_census(), 3),
])
def test_tally_is_the_status_counts_and_the_bound(make):
    census = make()
    statuses, bound = dovetail.tally(census)
    assert list(statuses.items()) == list(dovetail.status_counts(census).items())
    assert bound == omega_lower_bound(census)


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
    (26, 12): "0592b013d1b6b5ec4b276f09091905502835f0b960704906abd061263d9f2408",
    (28, 12): "34a2df64890b9ec4713b85e7455f2327ef645bb332a84dbc6005b3597da1a5fb",
}


def test_census_file_bytes_are_pinned(tmp_path):
    census = advance(new_census(20), 6)
    path = tmp_path / "small.census"
    save_census(census, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CENSUS_SHA256[20, 6]
    assert omega_lower_bound(census) == DyadicRational(Fraction(91, 2**16))


def test_census_26_12_bytes_are_pinned(tmp_path):
    """The largest pinned census: every head of at most two characters with
    its data extensions to 26 bits, run through the whole run path."""
    census = advance(new_census(26), 12, jobs=1)
    path = tmp_path / "26-12.census"
    save_census(census, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CENSUS_SHA256[26, 12]


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


def test_failed_save_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "t2.census"
    census = new_census(24)
    save_census(census, path)
    before = path.read_bytes()
    bits = program_head("(' a)")
    census.records[bits] = Record(bits, STATUS_HALTED_VALID, 1, "\u00e9")
    with pytest.raises(UnicodeEncodeError):
        save_census(census, path)
    assert list(tmp_path.glob("*.tmp.*")) == []
    assert path.read_bytes() == before


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


# Record fields that bytes.fromhex or int take and save_census never
# writes: (field, respelling).  The hex field's line has a letter in it.
_RESPELT = {
    "hex-tab-inside": (0, lambda hex_text: hex_text[:2] + "\t" + hex_text[2:]),
    "hex-tab-before": (0, lambda hex_text: "\t" + hex_text),
    "hex-uppercase": (0, str.upper),
    "length-plus": (1, lambda n: "+" + n),
    "length-zero-underscore": (1, lambda n: "0_" + n),
    "length-underscore": (1, lambda n: n[0] + "_" + n[1:]),
    "length-leading-zero": (1, lambda n: "0" + n),
    "steps-plus": (3, lambda n: "+" + n),
    "steps-zero-underscore": (3, lambda n: "0_" + n),
    "steps-leading-zero": (3, lambda n: "0" + n),
}


@pytest.mark.parametrize("spelling", sorted(_RESPELT))
def test_load_rejects_record_fields_that_save_census_never_spells(spelling, tmp_path):
    field, respell = _RESPELT[spelling]
    census = advance(new_census(17), 1)
    census.records  # held records, so that the file is read per record
    path = _saved(census, tmp_path)
    lines = path.read_text().split("\n")
    i = next(j for j in range(6, len(lines)) if set("abcdef") & set(lines[j][:6]))
    fields = lines[i].split(" ", 4)
    fields[field] = respell(fields[field])
    lines[i] = " ".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(CorruptFile, match="not lowercase hex|not a canonical decimal"):
        load_census(path)
    _assert_loads_like_reference(path, tmp_path)


@pytest.mark.parametrize("line, respell", [
    (3, lambda n: "+" + n),
    (4, lambda n: "0" + n),
    (5, lambda n: n[0] + "_" + n[1:]),
], ids=["max-bits-plus", "stage-leading-zero", "records-underscore"])
def test_load_rejects_header_numbers_that_save_census_never_spells(line, respell, tmp_path):
    path = _saved(advance(new_census(17), 1), tmp_path)
    lines = path.read_text().split("\n")
    name, value = lines[line].split(" ")
    lines[line] = f"{name} {respell(value)}"
    path.write_text("\n".join(lines))
    with pytest.raises(CorruptFile, match="bad header: not a canonical decimal"):
        load_census(path)
    _assert_loads_like_reference(path, tmp_path)


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


def _out_of_time_census():
    bits = [
        program_head(text) + data
        for text in (COUNTDOWN_TEXT, DIVERGER_TEXT)
        for data in _all_data(3)
    ]
    return _hand_enrolled(24, bits)


@pytest.mark.parametrize("jobs", [1, 2])
def test_read_paths_out_of_time_across_stages(jobs):
    census = _out_of_time_census()
    expected = copy.deepcopy(census)
    for stage in range(3):
        advance(census, 1, jobs=jobs)
        _reference_advance(expected, 1)
        assert census == expected
        counts = Counter(r.status for r in census.records.values())
        if stage == 0:
            assert counts == {STATUS_UNKNOWN: len(census.records)}
        else:
            assert counts[STATUS_HALTED_VALID] == 2  # the countdown, one data bit


@pytest.mark.parametrize("jobs", [1, 2])
def test_read_paths_out_of_time_carried_within_one_call(jobs, tmp_path):
    census = _out_of_time_census()
    expected = _reference_advance(copy.deepcopy(census), 3)
    assert advance(copy.deepcopy(census), 3, jobs=jobs) == expected
    # A saved census carries its undecided records into the next call.
    path = tmp_path / "c.census"
    save_census(advance(census, 1, jobs=jobs), path)
    assert advance(load_census(path), 2, jobs=jobs) == expected


# --- the per-head store against the per-record reference --------------------
#
# reference_dovetail.py keeps the census that builds and decides one Record
# per enumerated bit string.  The census under test keeps each head's read
# paths; its saved bytes, counts and bound are read before its records are,
# then its records are compared field by field and in order.


def _assert_matches_reference(census, reference, tmp_path):
    ours, theirs = tmp_path / "heads.census", tmp_path / "records.census"
    save_census(census, ours)
    save_census(reference, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    statuses = dict(Counter(r.status for r in reference.records.values()))
    assert dovetail.status_counts(census) == statuses
    assert omega_lower_bound(census) == omega_lower_bound(reference)
    fields = [(bits, r.bits, r.status, r.steps, r.value_text)
              for bits, r in census.records.items()]
    assert fields == [(bits, r.bits, r.status, r.steps, r.value_text)
                      for bits, r in reference.records.items()]
    assert census == reference
    save_census(census, ours)
    assert ours.read_bytes() == theirs.read_bytes()


def _both(census, plan, jobs=1, reference=None):
    if reference is None:
        reference = copy.deepcopy(census)
    for stages in plan:
        if stages == "read":
            census.records
        elif type(stages) is tuple:  # ("stage", k): move both stages by hand
            census.stage += stages[1]
            reference.stage += stages[1]
        else:
            advance(census, stages, jobs=jobs)
            reference_dovetail.advance(reference, stages, jobs=jobs)
    return census, reference


@pytest.mark.parametrize("max_bits, plan, jobs", [
    (20, [6], 1),
    (20, [6], 2),
    (20, [1] * 6, 1),
    (20, [2, 0, 3, 1], 2),
    (20, [1, "read", 2, "read", 3], 1),
    (20, [1, ("stage", 2), 1, ("stage", -2), 2], 1),
    (24, [10], 1),
])
def test_enumerated_census_matches_per_record_reference(max_bits, plan, jobs, tmp_path):
    census, reference = _both(new_census(max_bits), plan, jobs)
    _assert_matches_reference(census, reference, tmp_path)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("make", [
    lambda: _hand_enrolled(400, _read_path_bits()),
    _out_of_time_census,
])
def test_held_records_match_per_record_reference(make, stages, jobs, tmp_path):
    census, reference = _both(make(), [stages], jobs)
    _assert_matches_reference(census, reference, tmp_path)


def _enrol(census, bits, *fields):
    census.records[bits] = Record(bits, *fields)


def test_held_records_of_enrolled_programs_match_per_record_reference(tmp_path):
    census = new_census(20)
    # Before any pass: programs of 16, 18 and 20 bits, one of them with
    # fields no run gives, an undecodable string and an oversized program.
    _enrol(census, program_head("a") + "01", STATUS_HALTED_VALID, 99, "zz")
    _enrol(census, program_head("b"))
    _enrol(census, program_head("(") + "0000")
    _enrol(census, "0" * 18)
    _enrol(census, program_head("(read-bit)") + "1")
    census, reference = _both(census, [1])
    # The next pass enrols 18 bits: held records there are rewritten in
    # place, as the per-record census does.
    census, reference = _both(census, [2], reference=reference)
    _assert_matches_reference(census, reference, tmp_path)
    # After a pass: records enrolled by hand, then two more passes.
    for held in (census, reference):
        _enrol(held, program_head("(read-bit)") + "01")
        _enrol(held, program_head("c") + "0000", STATUS_HALTED_VALID, 1, "c")
    census, reference = _both(census, [1, 1], reference=reference)
    _assert_matches_reference(census, reference, tmp_path)


@pytest.mark.parametrize("read_first", [False, True])
def test_census_means_the_same_before_and_after_its_records_are_read(
    read_first, tmp_path
):
    def build():
        census = advance(new_census(20), 6)
        if read_first:
            census.records
        return census

    reference = reference_dovetail.advance(new_census(20), 6)
    assert build() == reference
    assert reference == build()
    assert repr(build()) == repr(reference)
    census = build()
    twin = copy.deepcopy(census)
    assert twin == census == reference
    path = tmp_path / "c.census"
    census = build()
    save_census(census, path)
    assert load_census(path) == census
    loaded, again = load_census(path), tmp_path / "again.census"
    save_census(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    # A deep copy of an unread census keeps its own state.
    census = build()
    twin = copy.deepcopy(census)
    twin.records[program_head("a") + "1111"].steps = 7
    assert twin != census == reference


# Enumerated heads that read bits, stand-ins for the texts of 88 bits and
# more that no census here reaches: every text padded to one length, the
# pool replaced and the schedule started at that length.
_READING_TEXTS = (
    "(read-bit)",
    "(join (read-bit) (read-bit))",
    "(if (= (read-bit) 1) (read-bit) a)",
    "(define (f) (if (= (read-bit) 1) (f) z)) (f)",
    "(run-remaining)",
    # about 57 steps before its read: unknown until budget 2**6
    "(define (f n) (if (= n ()) (read-bit) (f (tail n)))) (f (' (x x x x x x)))",
    DIVERGER_TEXT,
    "(' a) (' b)",
    "(' a)",
)
_PAD = max(map(len, _READING_TEXTS))
_READING_POOL = tuple(sorted(text.ljust(_PAD) for text in _READING_TEXTS))


def _use_pool(monkeypatch, pool):
    """Enumerate only the texts of the pool, all of one length; returns
    their head size."""
    min_bits = len(program_head(pool[0]))
    for module in (dovetail, reference_dovetail):
        monkeypatch.setattr(module, "MIN_PROGRAM_BITS", min_bits)
    monkeypatch.setattr(
        dovetail, "parseable_texts_upto",
        lambda k: tuple(text for text in pool if len(text) <= k),
    )
    return min_bits


@pytest.fixture
def reading_pool(monkeypatch):
    """Enumerate only the padded reading texts; returns their head size."""
    return _use_pool(monkeypatch, _READING_POOL)


@pytest.mark.parametrize("plan, jobs", [
    ([9], 1),
    ([9], 2),
    ([1] * 9, 1),
    ([3, 3, 3], 2),
    ([2, "read", 2, 5], 1),
])
def test_enrolled_heads_that_read_match_per_record_reference(
    plan, jobs, reading_pool, tmp_path
):
    census, reference = _both(new_census(reading_pool + 6), plan, jobs)
    assert {r.status for r in reference.records.values()} == {
        STATUS_HALTED_VALID, STATUS_HALTED_INVALID, STATUS_ABORTED, STATUS_UNKNOWN
    }
    _assert_matches_reference(census, reference, tmp_path)


# --- loading a file into heads against the per-record loader ---------------
#
# reference_dovetail.load_census builds one Record per line.  load_census
# puts a file that save_census could have written from per-head state into
# that state; every file must give the reference's census or its error.


def _assert_loads_like_reference(path, tmp_path, heads=None, saved=None):
    """Load path with both loaders: the same census, or the same error.
    heads, given for a file that save_census wrote, says whether the census
    must load into heads, and a re-save must give the file back; saved, if
    given, is the census the file was saved from, whose per-head state the
    load must give back exactly."""
    try:
        reference = reference_dovetail.load_census(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            load_census(path)
        assert str(raised.value) == str(exc)
        return
    census = load_census(path)
    if heads is not None:
        assert (census._window is not None) == heads
    if saved is not None:
        assert (census._window, census._heads) == (saved._window, saved._heads)
    again = tmp_path / "again.census"
    save_census(census, again)
    if heads is not None:
        assert again.read_bytes() == path.read_bytes()
    _assert_matches_reference(census, reference, tmp_path)


def _saved(census, tmp_path, name="saved.census"):
    path = tmp_path / name
    save_census(census, path)
    return path


@pytest.mark.parametrize("max_bits, stages", [(20, 6), (24, 10), (26, 12)])
def test_pinned_files_load_into_heads_like_reference(max_bits, stages, tmp_path):
    census = advance(new_census(max_bits), stages)
    path = _saved(census, tmp_path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CENSUS_SHA256[max_bits, stages]
    _assert_loads_like_reference(path, tmp_path, heads=True, saved=census)


@pytest.mark.parametrize("max_bits, stages", [(17, 1), (20, 1), (20, 3), (24, 5)])
def test_census_files_load_into_heads_like_reference(max_bits, stages, tmp_path):
    census = advance(new_census(max_bits), stages)
    _assert_loads_like_reference(
        _saved(census, tmp_path), tmp_path, heads=True, saved=census
    )


def test_stage_zero_file_loads_like_reference(tmp_path):
    path = _saved(new_census(24), tmp_path)
    _assert_loads_like_reference(path, tmp_path, heads=False)


@pytest.mark.parametrize("plan", [[1], [2], [4], [9], [2, 5]])
def test_files_of_heads_that_read_load_into_heads_like_reference(
    plan, reading_pool, tmp_path
):
    census = new_census(reading_pool + 6)
    for stages in plan:
        advance(census, stages)
    assert census._window is not None
    _assert_loads_like_reference(
        _saved(census, tmp_path), tmp_path, heads=True, saved=census
    )


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("make", [
    lambda: _hand_enrolled(400, _read_path_bits()),
    _out_of_time_census,
])
def test_files_of_held_records_load_like_reference(make, stages, tmp_path, monkeypatch):
    path = _saved(advance(make(), stages), tmp_path)
    # The read-path corpus's header puts 400 bits in the schedule; the
    # loader must see from the line count that the body is not a window's,
    # not by enumerating every text that fits.
    def enumerated(max_chars):
        raise AssertionError(f"texts of up to {max_chars} characters enumerated")

    monkeypatch.setattr(dovetail, "parseable_texts_upto", enumerated)
    _assert_loads_like_reference(path, tmp_path, heads=False)


# The reading texts and the long countdown, padded to one length: at their
# own length their heads abort on a read, stay unknown (the countdown until
# budget 2**10, the diverger always) or are malformed.  The digests are
# those of the files written before a head's own line came straight from
# the head's own path.
_OWN_LINE_POOL = tuple(sorted(
    text.ljust(len(COUNTDOWN_TEXT)) for text in _READING_TEXTS + (COUNTDOWN_TEXT,)
))
_OWN_LINE_SHA256 = {
    1: "f3c064b1b71188f27161d03f3d1b5ffddaad50cb0dfc0a9c9380816291248c4c",
    4: "c27e4f55e03e389935d2bdcbf5df0f39e778949b01e48815b43fbdacdea8d2b5",
    10: "3f05aec01e7c6d917804de689b59171cbe8a727a40f6c7d6cf670f9f8d825e62",
}


@pytest.mark.parametrize("stages", sorted(_OWN_LINE_SHA256))
def test_own_length_lines_of_heads_that_abort_or_run_long(stages, monkeypatch, tmp_path):
    min_bits = _use_pool(monkeypatch, _OWN_LINE_POOL)
    census, reference = _both(new_census(min_bits + 3), [stages])
    path = _saved(census, tmp_path)
    own = {
        (status, steps == "0")
        for _, length, status, steps, _ in (
            line.split(" ", 4) for line in path.read_text().splitlines()[6:]
        )
        if int(length) == min_bits
    }
    assert {(STATUS_ABORTED, False), (STATUS_ABORTED, True), (STATUS_UNKNOWN, False)} <= own
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _OWN_LINE_SHA256[stages]
    _assert_loads_like_reference(path, tmp_path, heads=True, saved=census)
    _assert_matches_reference(census, reference, tmp_path)


def _with_held_records():
    """An enumerated census that also holds an undecodable string, an
    oversized program and a program outside its window."""
    census = new_census(24)
    _enrol(census, "0" * 22)
    _enrol(census, program_head("(read-bit)") + "1")
    _enrol(census, program_head("a") + "0000", STATUS_HALTED_VALID, 1, "a")
    return advance(census, 2)


def test_file_with_held_records_loads_like_reference(tmp_path):
    census = _with_held_records()
    assert census._window is not None and len(census._records) == 3
    path = _saved(census, tmp_path)
    _assert_loads_like_reference(path, tmp_path, heads=False)
    assert load_census(path) == census


def _mangle(lines, rng):
    """One seeded edit of a body line, two swapped lines, a dropped line
    or a prepended held line; the record count is fixed after it."""
    body = range(6, len(lines))
    kind = rng.randrange(4)
    if kind == 0:
        i = rng.choice(body)
        fields = lines[i].split(" ", 4)
        j = rng.randrange(5)
        fields[j] = rng.choice([
            [f"{int(fields[0], 16) ^ (1 << rng.randrange(4)):0{len(fields[0])}x}",
             fields[0].upper(), "0" + fields[0]],
            [str(int(fields[1]) + 1), str(int(fields[1]) - 1), "0" + fields[1]],
            sorted(dovetail._STATUSES) + ["halted"],
            [str(int(fields[3]) + 1), "0", "-1", "0" + fields[3], "+" + fields[3]],
            ["-", "a", "(a b)", fields[4] + " "],
        ][j])
        lines[i] = " ".join(fields)
    elif kind == 1:
        i, j = rng.sample(body, 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 2:
        del lines[rng.choice(body)]
    else:
        lines.insert(6, f"{bits_to_hex('0' * 18)} 18 unknown 4 -")
    lines[5] = f"records {len(lines) - 6}"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("reading", [False, True])
def test_mangled_files_load_like_reference(reading, seed, tmp_path, request):
    if reading:
        min_bits = request.getfixturevalue("reading_pool")
        census = advance(new_census(min_bits + 6), 9)
    else:
        census = advance(new_census(20), 6)
    rng = random.Random(1600 + seed)
    lines = _saved(census, tmp_path).read_text().splitlines()
    for _ in range(8):
        mangled = list(lines)
        _mangle(mangled, rng)
        path = tmp_path / "mangled.census"
        path.write_text("\n".join(mangled) + "\n")
        _assert_loads_like_reference(path, tmp_path)


def _written(tmp_path, text, name="edited.census"):
    """A file holding exactly text, line endings included."""
    path = tmp_path / name
    path.write_bytes(text.encode("ascii"))
    return path


def _heads_text(tmp_path):
    """The (20, 6) file, saved from per-head state."""
    return _saved(advance(new_census(20), 6), tmp_path, "heads.census").read_text()


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_other_line_endings_load_like_reference(ending, tmp_path):
    text = _heads_text(tmp_path).replace("\n", ending)
    _assert_loads_like_reference(_written(tmp_path, text), tmp_path)


def test_file_without_final_newline_loads_like_reference(tmp_path):
    path = _written(tmp_path, _heads_text(tmp_path)[:-1])
    _assert_loads_like_reference(path, tmp_path)
    assert load_census(path)._window is None


@pytest.mark.parametrize("tail", ["x", "\n", " ", "\x0c"])
def test_file_with_text_after_the_last_line_loads_like_reference(tail, tmp_path):
    path = _written(tmp_path, _heads_text(tmp_path) + tail)
    _assert_loads_like_reference(path, tmp_path)


# Line boundaries of str.splitlines that "\n" is not; the per-record loader
# splits on them, so a value holding one is never read by path.
SPLITLINES_ONLY = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("mark", SPLITLINES_ONLY)
@pytest.mark.parametrize("edit", ["in-value", "in-value-counted", "joins-lines"])
def test_line_boundary_inside_a_value_loads_like_reference(mark, edit, tmp_path):
    """The first one-character head that halts validly gets the mark inside
    the value on each of its lines, so that they still render alike, with
    the header's count kept or raised to what splitlines counts; or the
    mark replaces the newline after the head's own line, so that
    splitlines still sees every line."""
    lines = _heads_text(tmp_path).split("\n")
    i = next(j for j, line in enumerate(lines) if " 16 halted-valid " in line)
    if edit == "joins-lines":
        lines[i:i + 2] = [lines[i] + mark + lines[i + 1]]
    else:
        head_hex = lines[i].split()[0]
        marked = [j for j, line in enumerate(lines) if line.startswith(head_hex)]
        for j in marked:
            lines[j] += mark + "b"
        if edit == "in-value-counted":
            lines[5] = f"records {len(lines) - 7 + len(marked)}"
    _assert_loads_like_reference(_written(tmp_path, "\n".join(lines)), tmp_path)


@pytest.mark.parametrize("delta", [-1, 1, 1 << 40])
def test_header_count_that_disagrees_with_the_body(delta, tmp_path):
    lines = _heads_text(tmp_path).split("\n")
    lines[5] = f"records {int(lines[5].split()[1]) + delta}"
    path = _written(tmp_path, "\n".join(lines))
    with pytest.raises(CorruptFile, match="expected"):
        load_census(path)
    _assert_loads_like_reference(path, tmp_path)


@pytest.mark.parametrize("line, value", [
    (1, "version omegalab-machine-0"),
    (2, "config 000000000000"),
])
def test_heads_file_of_another_machine_raises_version_mismatch(line, value, tmp_path):
    lines = _heads_text(tmp_path).split("\n")
    lines[line] = value
    path = _written(tmp_path, "\n".join(lines))
    with pytest.raises(VersionMismatch):
        load_census(path)
    _assert_loads_like_reference(path, tmp_path)


@pytest.mark.parametrize("exponent", [6, 12, 100])
@pytest.mark.parametrize("body", [0, 2])
def test_header_with_a_huge_stage_loads_quickly(exponent, body, tmp_path):
    """max-bits and stage of 10**12 put about 10**12 bits in the schedule;
    the loader must see from the line count that the body is no window's
    without building 2**(10**12), and load the header's census."""
    n = 10 ** exponent
    records = [f"{bits_to_hex('1' * 17)} 17 unknown 4 -",
               f"{bits_to_hex('1' * 18)} 18 aborted 0 -"][:body]
    text = (
        f"{dovetail._CENSUS_MAGIC}\nversion omegalab-machine-1\n"
        f"config {dovetail.config_hash()}\nmax-bits {n}\nstage {n}\n"
        f"records {body}\n" + "".join(line + "\n" for line in records)
    )
    path = _written(tmp_path, text)
    started = time.perf_counter()
    census = load_census(path)
    assert time.perf_counter() - started < 1.0
    assert (census.max_bits, census.stage, census._window) == (n, n, None)
    assert [len(bits) for bits in census.records] == [17, 18][:body]
    _assert_loads_like_reference(path, tmp_path, heads=False)


@pytest.mark.parametrize("reading", [False, True])
def test_heads_file_reads_each_path_line_once(reading, tmp_path, monkeypatch, request):
    """One walk: each read path's fields are read once, from its own line,
    and the census holds exactly the paths read."""
    if reading:
        saved = advance(new_census(request.getfixturevalue("reading_pool") + 6), 9)
    else:
        saved = advance(new_census(20), 6)
    read = []
    path_fields = dovetail._path_fields

    def counted(line, data_bits):
        read.append(line)
        return path_fields(line, data_bits)

    monkeypatch.setattr(dovetail, "_path_fields", counted)
    census = load_census(_saved(saved, tmp_path))
    paths = [path for paths in census._heads.values() for path in paths]
    assert len(read) == len(set(read)) == len(paths)
    assert census._heads == saved._heads


# --- deciding halting and finding winners from read paths -------------------


def _per_record_decision(census, n_bits):
    """Oracle: classify each program of at most n_bits by its record."""
    records = copy.deepcopy(census).records
    halting, rest = [], []
    for head, data in dovetail._heads_and_data(n_bits):
        record = records.get(head + data)
        if record is not None and record.status == STATUS_HALTED_VALID:
            halting.append(head + data)
        else:
            rest.append(head + data)
    return tuple(halting), tuple(rest)


@pytest.mark.parametrize("n_bits", [16, 18, 21, 23, 24])
def test_decide_from_paths_matches_per_record_decision(n_bits):
    census = advance(new_census(24), 5)  # enrolled to 21 bits
    decision = decide_halting_via_omega(DyadicRational.zero(), n_bits, census)
    assert census._window is not None  # nothing materialised
    assert decision.stop_stage == 5
    expected = _per_record_decision(census, n_bits)
    assert (decision.halting, decision.not_halting_relative) == expected
    if n_bits > census.enrolled_bits:
        beyond = [bits for bits in decision.not_halting_relative
                  if len(bits) > census.enrolled_bits]
        assert beyond and not census.records.keys() & set(beyond)


@pytest.mark.parametrize("n_bits", [17, 18, 20])
def test_decide_from_paths_and_held_records(n_bits):
    census = _with_held_records()  # enrolled to 18 bits, one 20-bit record held
    decision = decide_halting_via_omega(DyadicRational.zero(), n_bits, census)
    assert census._window is not None
    assert (decision.halting, decision.not_halting_relative) == (
        _per_record_decision(census, n_bits)
    )
    assert (program_head("a") + "0000" in decision.halting) == (n_bits >= 20)


@pytest.mark.parametrize("extra", [0, 3, 6, 8])
def test_decide_from_paths_that_read(extra, reading_pool):
    census = advance(new_census(reading_pool + 8), 4)  # enrolled to +4 bits
    n_bits = reading_pool + extra
    decision = decide_halting_via_omega(DyadicRational.zero(), n_bits, census)
    assert census._window is not None
    assert (decision.halting, decision.not_halting_relative) == (
        _per_record_decision(census, n_bits)
    )


def _assert_index_matches_records(census):
    unread = census._window is not None
    records = copy.deepcopy(census).records.values()
    expected = dovetail._value_index({
        r.bits: r.value_text for r in records if r.status == STATUS_HALTED_VALID
    })
    texts = sorted(expected) + ["(no such value)", "-"]
    assert {text: census.winner(text) for text in texts} == {
        text: expected.get(text) for text in texts
    }
    assert census.value_index[1] == expected
    assert (census._window is not None) == unread


@pytest.mark.parametrize("max_bits, stages", [(20, 6), (24, 10)])
def test_winner_from_paths_matches_the_records_index(max_bits, stages, tmp_path):
    census = advance(new_census(max_bits), stages)
    _assert_index_matches_records(census)
    _assert_index_matches_records(load_census(_saved(census, tmp_path)))


@pytest.mark.parametrize("make", [
    lambda: advance(_hand_enrolled(400, _read_path_bits()), 3),
    _with_held_records,
])
def test_winner_from_held_records_matches_the_records_index(make):
    _assert_index_matches_records(make())


def test_winner_from_paths_that_read_matches_the_records_index(reading_pool):
    census = advance(new_census(reading_pool + 6), 9)
    assert {r.status for r in copy.deepcopy(census).records.values()} >= {
        STATUS_HALTED_VALID, STATUS_UNKNOWN
    }
    _assert_index_matches_records(census)
