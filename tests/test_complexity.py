"""Upper-bound estimators and the constructive pairing constant."""

import copy
import random
from collections import defaultdict

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
from omegalab import dovetail
from omegalab.complexity import _census_winner, _literal_of
from omegalab.dovetail import (
    STATUS_ABORTED,
    STATUS_HALTED_INVALID,
    STATUS_HALTED_VALID,
    STATUS_UNKNOWN,
    Record,
    advance,
    load_census,
    new_census,
    parseable_texts_upto,
    save_census,
)
from omegalab.evaluator import Halted, program_head
from omegalab.machine import encode_program, encode_text, run_program
from omegalab.sexpr import QUOTE_ATOM, parse_one, print_canonical


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


def encoded_literal(x):
    """Reference for the literal witness: encode the quoting program."""
    return encode_program(((QUOTE_ATOM, x),))


@settings(max_examples=200, deadline=None)
@given(sexprs)
def test_literal_witness_from_text_is_the_encoded_literal(x):
    expected = encoded_literal(x).bits
    assert literal_witness(x).bits == expected
    assert _literal_of(print_canonical(x)).bits == expected


def test_literal_witness_from_text_on_edge_values():
    deep = "a"
    for _ in range(1000):
        deep = (deep,)
    for x in (QUOTE_ATOM, (), (QUOTE_ATOM,), (QUOTE_ATOM, QUOTE_ATOM), deep):
        assert literal_witness(x).bits == encoded_literal(x).bits
    for x in ((), (QUOTE_ATOM,), deep):
        assert h_upper(x).witness.bits == encoded_literal(x).bits
    for bad in ("a b", "", ("x", "a(b"), ("x", 3), (("y",), "'x")):
        errors = []
        for build in (encoded_literal, literal_witness):
            with pytest.raises((ValueError, TypeError)) as raised:
                build(bad)
            errors.append((raised.type, str(raised.value)))
        assert errors[0] == errors[1], bad


def test_a_plain_bound_prints_its_subject_once(monkeypatch):
    import omegalab.complexity as complexity

    printed = []

    def counted(x):
        printed.append(x)
        return print_canonical(x)

    monkeypatch.setattr(complexity.sexpr, "print_canonical", counted)
    x = parse_one("(q (r s))")
    h_upper(x)
    # The subject, then the value of the witness's verifying run.
    assert printed == [x, x]


def test_relative_and_randomness_queries_print_their_subject_once(monkeypatch):
    import omegalab.complexity as complexity

    x = parse_one("(q (r s))")
    wy = literal_witness(x)
    printed = []

    def counted(x):
        printed.append(x)
        return print_canonical(x)

    monkeypatch.setattr(complexity.sexpr, "print_canonical", counted)
    h_relative_upper(x, wy)
    # The given witness's value, the subject, the plain witness's value.
    assert printed == [x, x, x]
    printed.clear()
    bits = parse_one("(0 1 1 0)")
    randomness_report(bits)
    # The subject, then the value of the witness's verifying run.
    assert printed == [bits, bits]


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
    # hit, miss, self pair (which reuses its one plain bound)
    for (x, y), expected in zip(pairs, ((3, 3), (3, 3), (2, 2))):
        for key in calls:
            calls[key] = 0
        mutual_info_estimate(x, y, desk_census)
        assert (calls["scan"], calls["run"]) == expected

    # An admitted constructed candidate is run once: the duplicating wrapper
    # wins for a long list, and its admitting run is its verification.
    x = tuple("abcdefghijklmnopqrstuvwxyz")
    calls["run"] = 0
    est = h_joint_upper(x, x)
    assert est.witness.bits.startswith(program_head(DUP_WRAPPER_TEXT))
    assert calls["run"] == 2
    rerun_witness(est)

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


def scan_winner(records, value_text):
    """Reference for the value index: the linear scan it replaced.  The
    first strictly shortest halted-valid record with the value wins."""
    best = None
    for record in records:
        if record.status == STATUS_HALTED_VALID and record.value_text == value_text:
            if best is None or len(record.bits) < len(best):
                best = record.bits
    return best


def assert_winners_match_the_scan(census):
    # A record whose value text differs never matches in the scan, so
    # scanning each text's own records (in census order) is the full scan.
    by_text = defaultdict(list)
    for record in census.records.values():
        if record.value_text is not None:
            by_text[record.value_text].append(record)
    for text, records in by_text.items():
        assert _census_winner(census, text) == scan_winner(records, text), text
    return by_text


def test_census_winner_matches_the_scan(desk_census):
    rng = random.Random(909)
    by_text = assert_winners_match_the_scan(desk_census)
    assert len(by_text) > 8000
    misses = ["".join(rng.choices("pqrstuvw", k=rng.randint(3, 8))) + "0"
              for _ in range(50)]
    misses += ["(" + " ".join(rng.sample(sorted(by_text), 3)) + ")"
               for _ in range(50)]
    misses = [text for text in misses if text not in by_text]
    assert len(misses) > 90
    for text in misses:
        assert _census_winner(desk_census, text) is None
        assert scan_winner(desk_census.records.values(), text) is None
    assert _census_winner(None, "a") is None


def test_census_winner_ties_and_statuses():
    census = new_census(24)
    enrolled = [
        # Equal lengths enrolled against enumeration order: the first wins.
        ("1" * 20, STATUS_HALTED_VALID, "v"),
        ("0" * 20, STATUS_HALTED_VALID, "v"),
        ("0" * 22, STATUS_HALTED_VALID, "v"),
        # Shorter, with the same value text, but not a valid halt.
        ("01" * 8, STATUS_HALTED_INVALID, "v"),
        ("10" * 8, STATUS_UNKNOWN, "v"),
        # Equal lengths in enumeration order: the first still wins.
        ("0" * 18, STATUS_HALTED_VALID, "w"),
        ("1" * 18, STATUS_HALTED_VALID, "w"),
        ("0" * 17, STATUS_HALTED_INVALID, "x"),  # only an invalid halt
        ("1" * 24, STATUS_HALTED_VALID, "u"),  # a later, shorter record wins
        ("1" * 21, STATUS_HALTED_VALID, "u"),
    ]
    for bits, status, text in enrolled:
        census.records[bits] = Record(bits, status, 1, text)
    assert_winners_match_the_scan(census)
    assert [_census_winner(census, t) for t in ("v", "w", "x", "u", "y")] == [
        "1" * 20, "0" * 18, None, "1" * 21, None
    ]


def test_census_winner_follows_the_census(desk_census):
    texts = sorted({r.value_text for r in desk_census.records.values()
                    if r.status == STATUS_HALTED_VALID})
    census = new_census(24)
    found = {text: _census_winner(census, text) for text in texts}
    assert set(found.values()) == {None}
    first_found_late = 0
    for stage in range(10):
        advance(census, 1)
        assert_winners_match_the_scan(census)
        for text in texts:
            winner = _census_winner(census, text)
            if found[text] is None and winner is not None and stage > 0:
                first_found_late += 1
            found[text] = winner
    assert first_found_late > 0  # the two-character texts, at stage 8
    assert census == desk_census

    # A copy answers like the original, memo and all.
    twin = copy.deepcopy(census)
    for text in texts + ["(no such value)"]:
        assert _census_winner(twin, text) == _census_winner(census, text)

    # A shorter valid program enrolled by hand after a query wins the next.
    census = new_census(24)
    assert h_upper("a", census).bound_bits == 48  # the literal
    program = encode_text("a")
    census.records[program.bits] = Record(program.bits, STATUS_HALTED_VALID, 1, "a")
    est = h_upper("a", census)
    assert (est.bound_bits, est.witness) == (16, program)
    rerun_witness(est)


@pytest.mark.parametrize("text, message", [
    ("b", "witness value does not match the subject"),
    ("(", "witness does not halt validly"),
])
def test_a_held_record_whose_run_disagrees_is_no_witness(text, message):
    # Each held record claims the value a and is shorter than its 48-bit
    # literal, so it is the census winner; its run is checked before it
    # stands as the witness.
    census = new_census(24)
    bits = program_head(text)
    census.records[bits] = Record(bits, STATUS_HALTED_VALID, 1, "a")
    assert census.winner("a") == bits and len(bits) < 48
    with pytest.raises(InvalidWitness, match=message):
        h_upper("a", census)


def test_queries_leave_no_trace_in_the_census(tmp_path):
    path, again = tmp_path / "c.census", tmp_path / "again.census"
    census = advance(new_census(20), 6)
    save_census(census, path)
    before = repr(census)
    for record in list(census.records.values())[::7]:
        if record.value_text is not None:
            h_upper(parse_one(record.value_text), census)
    assert census.value_index is not None
    assert census == load_census(path)
    assert repr(census) == before
    save_census(census, again)
    assert again.read_bytes() == path.read_bytes()


def test_value_index_is_built_once_per_census_state(monkeypatch):
    builds = []
    build = dovetail._value_index

    def counted(census):
        builds.append(census.stage)
        return build(census)

    monkeypatch.setattr(dovetail, "_value_index", counted)
    census = advance(new_census(20), 4)
    texts = sorted({r.value_text for r in census.records.values()
                    if r.status == STATUS_HALTED_VALID})
    subjects = [parse_one(text) for text in texts[:90]] + ["zz", ("q", "r")]
    for i in range(100):
        h_upper(subjects[i % len(subjects)], census)
    assert len(builds) == 1
    advance(census, 1)
    for i in range(100):
        h_upper(subjects[i % len(subjects)], census)
    assert len(builds) == 2


def test_winner_sees_a_held_record_rewritten_in_place():
    census = advance(new_census(20), 4)
    census.records  # materialised: the records are held from here on
    witness = census.winner("a")
    assert h_upper("a", census).bound_bits == 16
    census.records[witness].status = STATUS_ABORTED
    assert census.winner("a") is None
    assert h_upper("a", census).bound_bits == 48  # the literal


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
