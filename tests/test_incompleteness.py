"""Diagonal digits, theory runs, and claim harvesting."""

import itertools
import os
import subprocess
import sys

import pytest

from conftest import DIVERGER_TEXT
from omegalab.incompleteness import (
    diagonal_table,
    digit_output_of,
    digit_program_output,
    digit_programs,
    omega_bit_claims,
    run_theory,
    unary,
)
from omegalab import incompleteness
from omegalab.evaluator import OutOfTime, _equal
from omegalab.machine import RunResult, encode_program, encode_text, run_program
from omegalab.sexpr import QUOTE_ATOM, parse_one, print_canonical

# Emits (1), (1 1), (1 1 1), ... forever.
UNARY_STREAM_TEXT = "(define (go n) (go (display (join 1 n)))) (go ())"

# Emits (omega-bit (1...) 0) with a growing unary position, forever.
CLAIM_STREAM_TEXT = (
    "(define (go n) (go (join 1 (head (tail "
    "(display (join omega-bit (join n (join 0 ())))))))))"
    " (go (' (1)))"
)

# Emits one claim each way at position 1, then stops.
CONTRADICTION_TEXT = (
    "(join (display (' (omega-bit (1) 0)))"
    " (join (display (' (omega-bit (1) 1))) ()))"
)


def test_unary_encoding():
    assert unary(0) == ()
    assert unary(3) == ("1", "1", "1")


def test_digit_programs_enumerate_shortest_first():
    head = list(itertools.islice(digit_programs(), 120))
    texts = [print_canonical(e) for e in head]
    # the 91 single-character programs come first, in byte order; distinct
    # texts may repeat a parse ("a " and "a"), which is fine: the roster
    # enumerates program texts, not meanings
    assert texts[:3] == ["!", '"', "#"]
    assert all(len(t) == 1 for t in texts[:91])
    assert len(set(texts[:91])) == 91
    assert texts[15] == "3"


def test_literal_digit_list_program_outputs_its_head():
    expr = parse_one("(' (3))")
    for m in (0, 1, 7, 40):
        assert digit_output_of(expr, m, budget=4096) == 3


def test_bare_digit_atom_outputs_itself():
    assert digit_output_of(parse_one("7"), 5, budget=4096) == 7


def test_non_digit_values_give_no_output():
    assert digit_output_of(parse_one("(' (x))"), 2, budget=4096) is None
    assert digit_output_of(parse_one("(' ())"), 2, budget=4096) is None
    assert digit_output_of(parse_one("42"), 2, budget=4096) is None  # two chars


def test_diverging_program_never_outputs():
    expr = parse_one(f"(lambda (m) {DIVERGER_TEXT})")
    for budget in (4, 64, 4096):
        assert digit_output_of(expr, 3, budget=budget) is None


def encoded_digit_output(expr, m, budget):
    """Reference for digit_output_of: encode the program and run its bits."""
    program = encode_program(((expr, (QUOTE_ATOM, unary(m))),))
    result = run_program(program, budget)
    if not result.valid_halt:
        return None
    value = result.outcome.value
    head = value[0] if type(value) is tuple and value else value
    if type(head) is str and len(head) == 1 and head in "0123456789":
        return int(head)
    return None


def _digit_or_error(fn, expr, m, budget):
    try:
        return fn(expr, m, budget)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_digit_output_matches_the_encoded_run():
    exprs = list(itertools.islice(digit_programs(), 120))
    exprs += [
        parse_one(f"(lambda (m) {DIVERGER_TEXT})"),
        parse_one("(' (3))"),
        parse_one("(lambda (m) (lambda (d) 3))"),  # a closure value
        parse_one("(lambda (m) (join (lambda (d) 3) m))"),  # a closure head
        parse_one("(lambda (m) (join 3 (read-bit)))"),  # reads past the data
        # A quote atom past a list's head prints as a quote mark, which
        # reads back as quote sugar: the first text decodes to a program
        # that outputs 3, the second to no program at all.
        ("head", QUOTE_ATOM, ("3",)),
        ("a", QUOTE_ATOM),
    ]
    for expr in exprs:
        for m in (0, 1, 7, 50):
            for budget in (1, 7, 64, 4096):
                expected = encoded_digit_output(expr, m, budget)
                assert digit_output_of(expr, m, budget) == expected, (
                    expr, m, budget,
                )
    assert digit_output_of(("head", QUOTE_ATOM, ("3",)), 2, 64) == 3


def test_digit_output_errors_match_the_encoded_run():
    bad = [
        "a b",
        "",
        ("x", "a(b"),
        ("lambda", ("m",), ("join", "3", "")),
        ("x", 3),  # not an s-expression
        "'x",
    ]
    for expr in bad + [parse_one("(' (3))"), ("a", QUOTE_ATOM)]:
        for m, budget in ((2, 64), (2, 0), (0, -1)):
            expected = _digit_or_error(encoded_digit_output, expr, m, budget)
            assert _digit_or_error(digit_output_of, expr, m, budget) == expected
    with pytest.raises(ValueError, match="not a printable atom name"):
        digit_output_of("a b", 2, 64)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        digit_output_of("3", 2, 0)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        diagonal_table(3, 0)


def test_outputs_stable_under_budget_increase():
    produced = {}
    for n in range(1, 40):
        produced[n] = digit_program_output(n, n, budget=64)
    for n, digit in produced.items():
        if digit is not None:
            assert digit_program_output(n, n, budget=4096) == digit


def test_digit_program_output_indexes_the_enumeration():
    # index 16 is the atom "3": it yields 3 at every position
    assert digit_program_output(16, 16, budget=256) == 3
    with pytest.raises(ValueError, match="^digit program indices start at 1$"):
        digit_program_output(0, 1, 8)


def test_diagonal_rule():
    table = diagonal_table(40, budget=4096)
    for row in table.rows:
        if row.produced == 3:
            assert row.diagonal_digit == 2
        else:
            # covers digits != 3 and no output at all
            assert row.diagonal_digit == 3
        assert row.diagonal_digit in (2, 3)


def test_diagonal_digits_disagree_with_produced_diagonal():
    budget = 1 << 12
    digits = diagonal_table(50, budget).digits
    assert len(digits) == 50
    for n in range(1, 51):
        produced = digit_program_output(n, n, budget)
        if produced is not None:
            assert digits[n - 1] != produced


def test_diagonal_requires_a_row():
    with pytest.raises(ValueError):
        diagonal_table(0, budget=16)


def test_diagonal_runs_row_n_at_position_n(monkeypatch):
    # The first enumerated programs ignore their argument; this one gives 3
    # at position 2 only, so a row run at another position shows.
    text = "(lambda (l) (if (= l (' (1 1))) 3 7))"
    monkeypatch.setattr(incompleteness, "digit_programs",
                        lambda: (parse_one(text) for _ in itertools.count()))
    table = diagonal_table(5, 4096)
    assert [row.produced for row in table.rows] == [7, 3, 7, 7, 7]
    assert table.digits == (3, 2, 3, 3, 3)
    for n, row in enumerate(table.rows, 1):
        assert row.index == n
        assert row.program_text == print_canonical(parse_one(text))
        assert row.produced == digit_output_of(parse_one(text), n, 4096)


def test_run_theory_unary_stream_grows_with_budget():
    program = encode_text(UNARY_STREAM_TEXT)
    lengths = []
    runs = []
    for budget in (64, 256, 1024):
        run = run_theory(program, budget)
        assert run.terminal == "out-of-time"
        lengths.append(len(run.theorems))
        runs.append(run.theorems)
    assert lengths[0] >= 1
    assert lengths[0] < lengths[1] < lengths[2]
    # append-only: shared prefixes are identical
    assert runs[1][: lengths[0]] == runs[0]
    assert runs[2][: lengths[1]] == runs[1]
    assert runs[0][0] == ("1",)


def test_run_theory_deduplicates_in_first_emission_order():
    text = (
        "(join (display (' a)) (join (display (' b))"
        " (join (display (' a)) ())))"
    )
    run = run_theory(encode_text(text), 4096)
    assert run.theorems == ("a", "b")
    assert run.terminal == "halted"


def test_run_theory_keeps_the_first_of_equal_statements(monkeypatch):
    first, other = ("a", ("b",)), "c"
    again = tuple(list(first))
    assert first == again and first is not again
    monkeypatch.setattr(
        incompleteness,
        "run_program",
        lambda theory, budget: RunResult(OutOfTime((first, other, again)), 0),
    )
    run = run_theory(encode_text("(' a)"), 16)
    assert run.theorems == (first, other)
    assert run.theorems[0] is first
    assert run.terminal == "out-of-time"


def test_run_theory_flags_halting_theory():
    run = run_theory(encode_text("(display (' (only fact)))"), 4096)
    assert run.terminal == "halted"
    assert run.theorems == (("only", "fact"),)
    assert run.budget_consumed < run.budget


@pytest.mark.parametrize("text, terminal, theorems, consumed", [
    # Emits a, then reads a bit the empty data does not hold.
    ("(join (display a) (read-bit))", "aborted", ("a",), 4),
    # Two forms, the first not a define: the program cannot run.
    ("(' a) (' b)", "malformed", (), 0),
])
def test_run_theory_of_a_theory_that_cannot_go_on(text, terminal, theorems, consumed):
    run = run_theory(encode_text(text), 4096)
    assert (run.terminal, run.theorems, run.budget_consumed) == (
        terminal, theorems, consumed
    )


def test_run_theory_empty_emitter():
    run = run_theory(encode_text("(' quiet)"), 4096)
    assert run.theorems == ()
    assert run.terminal == "halted"


def test_run_theory_size_matches_program():
    program = encode_text(UNARY_STREAM_TEXT)
    run = run_theory(program, 128)
    assert run.size_bits == len(program.bits)


def test_omega_bit_claims_canonical_shape():
    run = run_theory(
        encode_text("(display (' (omega-bit (1 1 1) 0)))"), 4096
    )
    claims = omega_bit_claims(run)
    assert claims.claims == {3: 0}
    assert claims.claim_count == 1
    assert not claims.inconsistent_positions
    assert claims.theory_bits == run.size_bits


def test_omega_bit_claims_ignore_other_shapes():
    text = (
        "(join (display (' (omega-bit (1) 0)))"
        " (join (display (' (theorem (1))))"
        " (join (display (' (omega-bit x 0)))"
        " (join (display (' (omega-bit (1 1) 2))) ()))))"
    )
    claims = omega_bit_claims(run_theory(encode_text(text), 4096))
    assert claims.claims == {1: 0}


def test_omega_bit_claims_contradiction_flagged():
    claims = omega_bit_claims(run_theory(encode_text(CONTRADICTION_TEXT), 4096))
    assert claims.inconsistent_positions == (1,)
    assert 1 not in claims.claims


def test_omega_bit_claims_stream_counts_vs_size():
    program = encode_text(CLAIM_STREAM_TEXT)
    run = run_theory(program, 1 << 12)
    claims = omega_bit_claims(run)
    assert claims.claim_count >= 3
    assert not claims.inconsistent_positions
    assert set(claims.claims.values()) == {0}
    # positions are an initial segment of 1, 2, 3, ...
    assert sorted(claims.claims) == list(range(1, claims.claim_count + 1))
    # reported side by side, never asserted against each other
    assert claims.theory_bits == len(program.bits)


def test_claims_are_subset_of_theorems():
    run = run_theory(encode_text(CLAIM_STREAM_TEXT), 512)
    claims = omega_bit_claims(run)
    emitted_positions = set()
    for theorem in run.theorems:
        if (
            type(theorem) is tuple
            and len(theorem) == 3
            and theorem[0] == "omega-bit"
        ):
            emitted_positions.add(len(theorem[1]))
    assert set(claims.claims) <= emitted_positions


def theorems_of(monkeypatch, stream):
    """run_theory's statements for a run that emitted stream."""
    monkeypatch.setattr(
        incompleteness,
        "run_program",
        lambda theory, budget: RunResult(OutOfTime(tuple(stream)), 0),
    )
    return run_theory(encode_text("(' a)"), 16).theorems


def assert_first_emissions(theorems, stream):
    """theorems are the stream's first emissions: the same values as
    dict.fromkeys gives, in its order, and the same objects."""
    want = tuple(dict.fromkeys(stream))
    assert theorems == want
    assert all(got is first for got, first in zip(theorems, want))


def test_run_theory_keeps_distinct_statements_of_one_shape(monkeypatch):
    # Every statement has length 3, head atom t, a two-item list and the
    # atom z, so all share one shape key: the bucket holds the first
    # statement and is hashed on the second.  Each value comes again as a
    # copy.
    values = [("t", ("x", str(i)), "z") for i in range(40)]
    stream = []
    for i, value in enumerate(values):
        stream.append(value)
        stream.append(tuple(list(values[i // 2])))
    assert_first_emissions(theorems_of(monkeypatch, stream), stream)


def test_run_theory_keeps_atoms_and_the_empty_list(monkeypatch):
    stream = ["a", (), "b", "a", (), ("a",), "()", ((),), (), "b"]
    theorems = theorems_of(monkeypatch, stream)
    assert theorems == ("a", (), "b", ("a",), "()", ((),))
    assert_first_emissions(theorems, stream)


def test_run_theory_compares_statements_too_deep_for_equality(monkeypatch):
    def nest(depth):
        value = "a"
        for _ in range(depth):
            value = (value,)
        return value

    deep, copy, other = nest(5000), nest(5000), nest(5001)
    theorems = theorems_of(monkeypatch, [deep, copy, other, deep])
    assert len(theorems) == 2
    assert theorems[0] is deep and theorems[1] is other


# Emits a, (a), ((a)), ...: one shape key for every statement after the
# first, so all but a few go through the hashed bucket.
NESTED_GENERATOR_TEXT = "(define (go n) (go (join (display n) ()))) (go a)"


def test_run_theory_of_a_nested_generator_at_a_small_budget():
    program = encode_text(NESTED_GENERATOR_TEXT)
    run = run_theory(program, 1 << 13)
    emitted = run_program(program, 1 << 13).outcome.emitted
    assert len(run.theorems) > 1000
    # Statements this deep compare by _equal: == recurses too deep for them.
    assert _equal(run.theorems, tuple(dict.fromkeys(emitted)))


def test_theory_runs_compare_and_hash_by_identity():
    # Tuple == and hash over theorems this deep would recurse once per
    # level (== raises RecursionError here); a run is one object.
    program = encode_text(NESTED_GENERATOR_TEXT)
    run, again = run_theory(program, 1 << 13), run_theory(program, 1 << 13)
    assert run == run and run != again
    assert len({run, again, run}) == 2
    assert hash(run) != hash(again)


DEEP_STREAM_SCRIPT = """
from omegalab import incompleteness
from omegalab.evaluator import OutOfTime
from omegalab.machine import RunResult, encode_text


def nest(depth):
    value = "a"
    for _ in range(depth):
        value = (value,)
    return value


# Every statement is a one-item list of a one-item list: one shape key.
deep, copy = nest(300_001), nest(300_001)
stream = (deep, (deep,), copy, (copy,))
incompleteness.run_program = lambda theory, budget: RunResult(OutOfTime(stream), 0)
theorems = incompleteness.run_theory(encode_text("(' a)"), 16).theorems
print(len(theorems), theorems[0] is deep, theorems[1] is stream[1])
"""


def test_run_theory_dedupes_statements_nested_past_the_host_stack():
    # In a child process: hashing a tuple this deep recurses in C and
    # crashes the interpreter.  The child imports the same source tree.
    src = os.path.dirname(os.path.dirname(incompleteness.__file__))
    result = subprocess.run(
        [sys.executable, "-c", DEEP_STREAM_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["2", "True", "True"]


def test_run_theory_compares_every_statement_of_one_fingerprint(monkeypatch):
    # With every fingerprint equal, only the full comparison tells the
    # statements of one shape apart.
    monkeypatch.setattr(incompleteness, "_fingerprint", lambda statement, memo: 0)
    stream = [("t", ("x", "y"), "z"), ("t", ("y", "x"), "z"), ("t", ("x", "y"), "z")]
    assert_first_emissions(theorems_of(monkeypatch, stream), stream)


def test_fingerprints_tell_apart_statements_of_one_shape():
    # Equal statements share a fingerprint; these differ only past the
    # shape key's reach, in item order or in depth.
    memo = {}
    statements = [
        ("t", ("x", "y"), "z"), ("t", ("y", "x"), "z"), ("t", (("x",), "y"), "z"),
        ("t", ("x", ("y",)), "z"), ("t", ("x", "y"), "z", "w"), ("t", ("x", "y"), "z", ()),
    ]
    prints = {incompleteness._fingerprint(s, memo) for s in statements}
    assert len(prints) == len(statements)
    copies = [tuple(list(s)) for s in statements]
    assert {incompleteness._fingerprint(s, memo) for s in copies} == prints


def test_run_theory_of_the_benchmark_stream_matches_a_whole_hash_dedupe(monkeypatch):
    # The stream of perfbench eval-deep's theory operation, at its budget.
    emitted = run_program(encode_text(CLAIM_STREAM_TEXT), 1 << 16).outcome.emitted
    theorems = theorems_of(monkeypatch, emitted)
    assert len(theorems) == 4680
    assert_first_emissions(theorems, emitted)
