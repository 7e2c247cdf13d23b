"""Upper-bound estimators and the constructive pairing constant."""

import random

import pytest
from hypothesis import given, settings

from conftest import atoms, sexprs
from omegalab.complexity import (
    COMPRESSIBLE_NOTE,
    DEFAULT_SEARCH_BUDGET,
    DUP_WRAPPER_TEXT,
    INCOMPRESSIBLE_NOTE,
    InvalidWitness,
    NotABitString,
    PAIR_WRAPPER_TEXT,
    h_joint_upper,
    h_relative_upper,
    h_upper,
    literal_witness,
    mutual_info_estimate,
    pair_overhead_bits,
    pair_programs,
    randomness_report,
)
from omegalab.dovetail import advance, new_census, parseable_texts_upto
from omegalab.evaluator import Halted, program_head
from omegalab.machine import encode_text, run_program
from omegalab.sexpr import parse_one, print_canonical


def rerun_witness(estimate):
    result = run_program(estimate.witness, 1 << 16)
    assert result.valid_halt
    assert print_canonical(result.outcome.value) == print_canonical(
        estimate.subject
    )
    assert estimate.bound_bits == len(estimate.witness.bits)


def test_literal_witness_always_exists_and_halts():
    for text in ("a", "()", "(a (b c))", "(' x)"):
        x = parse_one(text)
        w = literal_witness(x)
        result = run_program(w, 100)
        assert result.valid_halt
        assert result.outcome.value == x


def test_h_upper_atom_without_census_uses_literal():
    est = h_upper("a")
    assert est.bound_bits == 48  # |encode("(' a)")|
    assert est.search_exhausted_to == 0
    rerun_witness(est)


def test_h_upper_atom_with_census_finds_self_evaluator(desk_census):
    est = h_upper("a", desk_census)
    assert est.bound_bits == 16  # the single-character program "a"
    assert est.search_exhausted_to == 24
    rerun_witness(est)


def test_h_upper_empty_list_bound(desk_census):
    est = h_upper((), desk_census)
    assert est.bound_bits == 24  # the "()" program
    rerun_witness(est)


def test_h_upper_never_below_exhaustive_minimum(desk_census):
    # the census search is exhaustive over its range, so no validly
    # halting program of <= 24 bits beats a returned bound
    est = h_upper(("x", "y"), desk_census)
    smaller = [
        r
        for r in desk_census.records.values()
        if r.status == "halted-valid"
        and r.value_text == "(x y)"
        and len(r.bits) < est.bound_bits
    ]
    assert smaller == []
    rerun_witness(est)


def test_h_upper_anti_monotone_in_search_effort():
    shallow = advance(new_census(18), 2)
    deep = advance(new_census(24), 10)
    for text in ("a", "()", "(p q)"):
        x = parse_one(text)
        assert (
            h_upper(x, deep).bound_bits
            <= h_upper(x, shallow).bound_bits
            <= h_upper(x).bound_bits
        )


def test_h_joint_subject_is_the_pair(desk_census):
    est = h_joint_upper("a", "b", desk_census)
    assert est.subject == ("a", "b")
    rerun_witness(est)


def test_h_joint_self_pair_within_duplication_overhead(desk_census):
    dup_overhead = 8 * len(DUP_WRAPPER_TEXT) + 8
    for text in ("a", "(a b c)", "(deep (nesting (here)))"):
        x = parse_one(text)
        hx = h_upper(x, desk_census)
        hxx = h_joint_upper(x, x, desk_census)
        assert hxx.bound_bits <= hx.bound_bits + dup_overhead
        rerun_witness(hxx)


def test_h_joint_subadditive_via_pairing(desk_census):
    for tx, ty in (("a", "b"), ("(f x)", "longish-atom"), ("()", "()")):
        x, y = parse_one(tx), parse_one(ty)
        joint = h_joint_upper(x, y, desk_census)
        separate = (
            h_upper(x, desk_census).bound_bits
            + h_upper(y, desk_census).bound_bits
            + pair_overhead_bits()
        )
        assert joint.bound_bits <= separate


def test_pair_programs_halts_with_joint_value():
    p = encode_text("(' a)")
    q = encode_text("(' b)")
    paired = pair_programs(p, q)
    result = run_program(paired, 1000)
    assert result.valid_halt
    assert result.outcome.value == ("a", "b")
    assert len(paired.bits) == pair_overhead_bits() + len(p.bits) + len(q.bits)


def test_pair_overhead_is_the_wrapper_size():
    assert pair_overhead_bits() == 8 * len(PAIR_WRAPPER_TEXT) + 8 == 392
    # The pairing heads are built from the texts as written, which is what
    # encode_program produces only because the texts are canonical.
    for text in (PAIR_WRAPPER_TEXT, DUP_WRAPPER_TEXT):
        assert encode_text(text, "01").bits == program_head(text) + "01"
    p, q = encode_text("(' a)"), encode_text("(' b)")
    assert pair_programs(p, q) == encode_text(PAIR_WRAPPER_TEXT, p.bits + q.bits)


def test_pair_programs_constant_difference_fuzzed(desk_census):
    valid = [
        r.bits
        for r in desk_census.records.values()
        if r.status == "halted-valid"
    ]
    from omegalab.machine import BinaryProgram

    picks = valid[:: max(1, len(valid) // 12)]
    for i, a in enumerate(picks[:6]):
        p = BinaryProgram(a)
        q = BinaryProgram(picks[-1 - i])
        paired = pair_programs(p, q)
        assert len(paired.bits) - len(p.bits) - len(q.bits) == pair_overhead_bits()
        assert run_program(paired, 1 << 16).valid_halt


def test_pair_programs_rejects_non_halting_witness():
    aborting = encode_text("(read-bit)")  # overruns immediately
    with pytest.raises(InvalidWitness):
        pair_programs(aborting, encode_text("(' a)"))
    invalid = encode_text("(' a)", "1")  # halts with unread data
    with pytest.raises(InvalidWitness):
        pair_programs(encode_text("(' a)"), invalid)


def test_mutual_info_identity_by_construction(desk_census):
    for tx, ty in (("a", "a"), ("a", "b"), ("(x y)", "z")):
        x, y = parse_one(tx), parse_one(ty)
        mutual = mutual_info_estimate(x, y, desk_census)
        expected = (
            h_upper(x, desk_census).bound_bits
            + h_upper(y, desk_census).bound_bits
            - h_joint_upper(x, y, desk_census).bound_bits
        )
        assert mutual == expected


@given(sexprs, sexprs)
@settings(max_examples=20, deadline=None)
def test_mutual_info_identity_fuzzed(x, y):
    mutual = mutual_info_estimate(x, y)
    assert mutual == (
        h_upper(x).bound_bits
        + h_upper(y).bound_bits
        - h_joint_upper(x, y).bound_bits
    )


def test_mutual_info_positive_for_shared_structure(desk_census):
    # computing a big list with itself shares the whole description
    x = parse_one("(a b c d e f g h i j k l m)")
    assert mutual_info_estimate(x, x, desk_census) > 0


def test_mutual_info_small_for_independent_atoms(desk_census):
    # two unrelated atoms: the pairing witness shows near-zero sharing
    gain = mutual_info_estimate("qqq", "zzz", desk_census)
    assert abs(gain) <= pair_overhead_bits()


def test_joint_queries_compute_each_bound_once(desk_census, monkeypatch):
    import omegalab.complexity as complexity

    calls = {"scan": 0, "run": 0, "parse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(complexity, "_census_winner",
                        counted("scan", complexity._census_winner))
    monkeypatch.setattr(complexity, "run_program",
                        counted("run", complexity.run_program))
    pairs = [(parse_one(tx), parse_one(ty))
             for tx, ty in (("a", "()"), ("(q r)", "(s t)"), ("(q r)", "(q r)"))]
    for x, y in pairs:  # hit, miss, self pair
        for key in calls:
            calls[key] = 0
        mutual_info_estimate(x, y, desk_census)
        assert (calls["scan"], calls["run"]) == (3, 3)

    # Runs decode through the parse memo, so query once to fill it; after
    # that no pair or joint query parses anything, the wrappers included.
    p, q = literal_witness("a"), literal_witness("b")
    for x, y in pairs:
        h_joint_upper(x, y, desk_census)
    pair_programs(p, q)
    monkeypatch.setattr(complexity.sexpr, "parse",
                        counted("parse", complexity.sexpr.parse))
    for x, y in pairs:
        h_joint_upper(x, y, desk_census)
    pair_programs(p, q)
    assert calls["parse"] == 0


def test_h_relative_same_value_within_relay_overhead(desk_census):
    wy = literal_witness(parse_one("(v w)"))
    est = h_relative_upper(parse_one("(v w)"), wy, desk_census)
    assert est.bound_bits <= 8 * 15 + 8 + len(wy.bits)
    rerun_witness(est)


def test_relay_wrapper_replays_the_witness():
    wy = literal_witness(parse_one("(v w)"))
    relay = encode_text("(run-remaining)", wy.bits)
    result = run_program(relay, 1 << 12)
    assert result.valid_halt
    assert result.outcome.value == ("v", "w")
    assert len(relay.bits) == 8 * 15 + 8 + len(wy.bits)


def test_h_relative_unrelated_no_worse_than_plain(desk_census):
    wy = literal_witness("ignored")
    est = h_relative_upper("a", wy, desk_census)
    assert est.bound_bits <= h_upper("a", desk_census).bound_bits
    rerun_witness(est)


def test_h_relative_rejects_bad_witness():
    with pytest.raises(InvalidWitness):
        h_relative_upper("a", encode_text("(read-bit)"))


def test_short_prefixes_never_read_the_given_witness():
    # Reading the tape takes at least the 10 characters of (read-bit), so a
    # prefix of at most 2 characters cannot use a witness laid after it.
    for text in parseable_texts_upto(2):
        program = encode_text(text, "1")
        outcome = run_program(program, DEFAULT_SEARCH_BUDGET).outcome
        assert isinstance(outcome, Halted), text
        assert outcome.bits_consumed == 0, text


def test_h_relative_is_the_given_witness_or_the_plain_bound(desk_census):
    rng = random.Random(4)
    values = sorted(
        {r.value_text for r in desk_census.records.values()
         if r.status == "halted-valid"}
    )
    hit, other = (parse_one(text) for text in rng.sample(values, 2))
    witnesses = [
        h_upper(hit, desk_census).witness,  # a census winner
        encode_text("abc"),  # beats the literal; the census cannot reach it
        encode_text("(read-bit)", "1"),  # reads its one data bit
        encode_text("(join (read-bit) ())", "0"),  # needs 3 steps
    ]
    for wy in witnesses:
        own = run_program(wy, DEFAULT_SEARCH_BUDGET).outcome.value
        grid = [(own, b) for b in (1, 2, 3, 4, DEFAULT_SEARCH_BUDGET)]
        grid += [(other, DEFAULT_SEARCH_BUDGET), ("zzz", DEFAULT_SEARCH_BUDGET)]
        for x, budget in grid:
            if not run_program(wy, budget).valid_halt:
                with pytest.raises(InvalidWitness):
                    h_relative_upper(x, wy, desk_census, budget)
                continue
            plain = h_upper(x, desk_census, budget)
            wins = (
                print_canonical(own) == print_canonical(x)
                and len(wy.bits) <= plain.bound_bits
            )
            want = wy if wins else plain.witness
            got = h_relative_upper(x, wy, desk_census, budget)
            assert (got.bound_bits, got.witness, got.search_exhausted_to) == (
                len(want.bits), want, plain.search_exhausted_to
            ), (print_canonical(x), wy.hex, budget)


def test_randomness_report_empty_string_matches_h_upper(desk_census):
    report = randomness_report((), desk_census)
    assert report.length == 0
    assert report.bound_bits == h_upper((), desk_census).bound_bits


def test_randomness_report_zeros_at_desk_scale(desk_census):
    x = ("0",) * 64
    report = randomness_report(x, desk_census)
    assert report.length == 64
    assert report.literal_bits == 8 * 133 + 8 == 1072
    assert report.overhead_bits == report.literal_bits - 64
    # nothing in a 24-bit corpus generates this string: literal stands
    assert report.bound_bits == report.literal_bits
    assert report.deficiency_bits == 0
    assert not report.compressible
    assert report.note == INCOMPRESSIBLE_NOTE


def test_randomness_report_flags_compressible_when_search_wins():
    # a census record for the subject value, smaller than the literal,
    # must flip the flag
    census = advance(new_census(24), 9)
    x = ("1",)
    report = randomness_report(x, census)
    assert report.note in (COMPRESSIBLE_NOTE, INCOMPRESSIBLE_NOTE)
    if report.bound_bits < report.literal_bits:
        assert report.compressible
        assert report.deficiency_bits > 0


def test_randomness_report_rejects_non_bit_strings():
    with pytest.raises(NotABitString):
        randomness_report(("0", "2"))
    with pytest.raises(NotABitString):
        randomness_report("01")
    with pytest.raises(NotABitString):
        randomness_report(("0", ("1",)))


@given(atoms)
@settings(max_examples=25, deadline=None)
def test_witness_reruns_to_subject_fuzzed(name):
    rerun_witness(h_upper(name))
