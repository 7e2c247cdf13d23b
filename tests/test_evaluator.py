"""Budgeted evaluator semantics."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIVERGER_TEXT, IN_SET_TEXT, bit_strings
from omegalab import evaluator
from omegalab.evaluator import (
    AbortOverrun,
    Halted,
    MalformedProgram,
    OutOfTime,
    evaluate,
)
from omegalab.machine import encode_text
from omegalab.sexpr import parse


def run(text, tape="", budget=4096):
    return evaluate(parse(text), tape, budget)


def halted_value(text, tape="", budget=4096):
    out = run(text, tape, budget)
    assert isinstance(out, Halted), out
    return out.value


def test_in_set_membership_yields_true():
    out = run(IN_SET_TEXT + "(in-set? (' y) (' (x y z)))")
    assert isinstance(out, Halted)
    assert out.value == "true"
    assert out.bits_consumed == 0


def test_in_set_membership_yields_false():
    assert halted_value(IN_SET_TEXT + "(in-set? (' q) (' (x y z)))") == "false"


def test_quote_stops_evaluation():
    out = run("(' a)", budget=10)
    assert out == Halted("a", 0, 1, ())
    assert halted_value("(' (f x))") == ("f", "x")
    assert halted_value("(quote zig)") == "zig"


def test_read_bit_overruns_on_empty_tape():
    out = run("(read-bit)")
    assert isinstance(out, AbortOverrun)


def test_read_bit_consumes_in_order():
    out = run("(join (read-bit) (join (read-bit) ()))", tape="10")
    assert isinstance(out, Halted)
    assert out.value == ("1", "0")
    assert out.bits_consumed == 2


def test_head_tail_aliases_and_totality():
    assert halted_value("(head (' (a b)))") == "a"
    assert halted_value("(car (' (a b)))") == "a"
    assert halted_value("(tail (' (a b)))") == ("b",)
    assert halted_value("(cdr (' (a b)))") == ("b",)
    # totality on atoms and the empty list
    assert halted_value("(head (' x))") == "x"
    assert halted_value("(tail (' x))") == ()
    assert halted_value("(head ())") == ()
    assert halted_value("(tail ())") == ()


def test_join_prepends_and_totalizes():
    assert halted_value("(join (' a) (' (b c)))") == ("a", "b", "c")
    assert halted_value("(join (' a) (' b))") == ("a",)
    assert halted_value("(join () ())") == ((),)


def test_equality_is_structural():
    assert halted_value("(= (' (a (b))) (' (a (b))))") == "true"
    assert halted_value("(= (' a) (' b))") == "false"
    assert halted_value("(= () ())") == "true"


def test_truthiness_only_false_atom_is_false():
    assert halted_value("(if false (' yes) (' no))") == "no"
    assert halted_value("(if () (' yes) (' no))") == "yes"
    assert halted_value("(if (' anything) (' yes) (' no))") == "yes"
    assert halted_value("(if 0 (' yes) (' no))") == "yes"


def test_atom_predicate():
    assert halted_value("(atom? (' x))") == "true"
    assert halted_value("(atom? ())") == "false"
    assert halted_value("(atom? (' (a)))") == "false"


def test_unbound_atoms_self_evaluate():
    assert halted_value("zig") == "zig"
    assert halted_value("(join zig ())") == ("zig",)


def test_define_value_form_and_final_define():
    assert halted_value("(define x (' (a b))) (head x)") == "a"
    # a final define is allowed and yields the defined name
    assert halted_value("(define x (' a))") == "x"


def test_lambda_lexical_capture():
    text = "(((lambda (x) (lambda (y) x)) (' outer)) (' inner))"
    assert halted_value(text) == "outer"


def test_lambda_value_renders_as_source():
    assert halted_value("(lambda (x) x)") == ("lambda", ("x",), "x")


@pytest.mark.parametrize(
    "text, value",
    [
        ("(= (lambda (x) x) (' (lambda (x) x)))", "true"),
        # different environments, same source
        ("(= ((lambda (y) (lambda (x) x)) a) (lambda (x) x))", "true"),
        ("(= (join (lambda (x) x) ()) (' ((lambda (x) x))))", "true"),
        ("(= (lambda (x) x) (lambda (x y) x))", "false"),
        ("(= (lambda (x) x) lambda)", "false"),
        ("(define (f) (lambda (q) q)) (head (join (f) ()))", ("lambda", ("q",), "q")),
    ],
)
def test_closures_compare_and_render_as_source(text, value):
    assert halted_value(text) == value


def test_display_renders_closures_inside_lists():
    out = run("(display (join (lambda (x) x) ()))")
    assert isinstance(out, Halted)
    assert out.emitted == ((("lambda", ("x",), "x"),),)
    assert type(out.emitted[0][0]) is tuple


# The final value doubles a shared node 60 times, so it has 2**60 paths but
# only 61 distinct lists; the run also puts a closure in a list.  Turning
# the value into tuples, and rendering any closure in it, must walk each
# list once.
SHARED_DOUBLING_SCRIPT = """
import resource

from omegalab.evaluator import evaluate
from omegalab.sexpr import parse

text = (
    "(define c (join (lambda (x) x) ()))"
    "(define (dbl x n) (if (= n ()) x (dbl (join x (join x ())) (tail n))))"
    "(dbl (' a) (' (" + " ".join(["1"] * 60) + ")))"
)
# A walk per path would run for years: end it after 5 s of CPU time.
resource.setrlimit(resource.RLIMIT_CPU, (5, 5))
out = evaluate(parse(text), "", 4096)
print(type(out).__name__, out.steps)
"""


def test_closure_check_walks_a_shared_value_once_per_node():
    # In a child process: the value must not be compared or printed here,
    # both take time exponential in the doubling count.  The child imports
    # the same source tree as this process.
    src = os.path.dirname(os.path.dirname(evaluator.__file__))
    result = subprocess.run(
        [sys.executable, "-c", SHARED_DOUBLING_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["Halted", "794"]


def test_arity_padding_and_extras():
    assert halted_value("((lambda (a b) (join a (join b ()))) (' x))") == ("x", ())
    assert halted_value("((lambda (a) a) (' x) (' y))") == "x"
    assert halted_value("(if (' c))") == ()


def test_applying_non_function_yields_it():
    assert halted_value("((' k) (' x))") == "k"


def test_display_emits_and_yields():
    out = run("(join (display (' a)) (join (display (' (b))) ()))")
    assert isinstance(out, Halted)
    assert out.emitted == ("a", ("b",))
    assert out.value == ("a", ("b",))


def test_display_emissions_survive_out_of_time():
    text = "(define (go n) (go (display (join 1 n)))) (go ())"
    out = run(text, budget=64)
    assert isinstance(out, OutOfTime)
    assert len(out.emitted) > 2
    assert out.emitted[0] == ("1",)
    assert out.emitted[1] == ("1", "1")


def test_malformed_non_define_leading_form():
    out = run("(' a) (' b)")
    assert out == MalformedProgram("NonDefineForm")


def test_malformed_empty_program():
    assert evaluate((), "", 8) == MalformedProgram("EmptyProgram")


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        evaluate(parse("x"), "", 0)


@pytest.mark.parametrize("text, tape", [
    ("x", "012"),
    ("(run-remaining)", "0a"),
    ("(run-remaining)", "0a000000" + "00000000"),
])
def test_tape_must_be_a_bit_string(text, tape):
    # Checked on entry: unchecked, (run-remaining) would read the last
    # tape's text with int(..., 2) and raise, and no parsed program may.
    with pytest.raises(ValueError, match=r"^tape bits must be a string over 0/1$"):
        evaluate(parse(text), tape, 8)


def test_out_of_time_on_diverger():
    for budget in (1, 10, 1000):
        assert isinstance(run(DIVERGER_TEXT, budget=budget), OutOfTime)


def test_nested_define_binds_program_globals():
    text = "(define (setup) (define deep (' d))) (join (setup) (join deep ()))"
    # the call yields the defined name; the binding lands in the globals
    assert halted_value(text) == ("deep", "d")


def test_deep_recursion_no_host_stack_overflow():
    # depth far beyond CPython's recursion limit; explicit stack required
    text = "(define (go n) (if (= n ()) done (go (tail n)))) (go (' %s))" % (
        "(" + " ".join("1" * 5000) + ")"
    )
    out = run(text, budget=1 << 17)
    assert isinstance(out, Halted)
    assert out.value == "done"


NEST_TEXT = (
    "(define (nest x) (if (= (read-bit) 1) (nest (join x ())) x))"
    " (= (nest {}) (nest {}))"
)


@pytest.mark.parametrize("n", [500, 5000, 100_000])
@pytest.mark.parametrize(
    "left, right, value",
    [
        ("a", "a", "true"),
        ("a", "b", "false"),
        ("a", "()", "false"),
        ("(lambda (x) x)", "(' (lambda (x) x))", "true"),
        ("(lambda (x) x)", "(lambda (y) x)", "false"),
        ("(' (a))", "(' (a b))", "false"),
    ],
    ids=["same-atom", "other-atom", "atom-vs-list", "closure-vs-source", "other-closure",
         "shorter-list"],
)
def test_equality_of_values_nested_past_the_host_stack(n, left, right, value):
    # two separately built lists nested n deep that differ at most at the
    # bottom; the step count is the one measured on shallow nests
    tape = ("1" * n + "0") * 2
    out = run(NEST_TEXT.format(left, right), tape=tape, budget=10**8)
    assert out == Halted(value, 2 * n + 2, 18 * (n + 1))


@pytest.mark.parametrize(
    "left, right, value",
    [("x", "x", "true"), ("x", "y", "false")],
)
def test_equality_of_closures_with_bodies_nested_past_the_host_stack(left, right, value):
    depth = 5000
    body = "(" * depth + "{}" + ")" * depth
    for text in ("(= (lambda (x) %s) (' (lambda (x) %s)))",
                 "(= (lambda (x) %s) (lambda (x) %s))"):
        out = run(text % (body.format(left), body.format(right)))
        assert out == Halted(value, 0, 3)


def test_run_remaining_runs_embedded_program():
    inner = encode_text("(' payload)")
    out = run("(run-remaining)", tape=inner.bits)
    assert isinstance(out, Halted)
    assert out.value == "payload"
    assert out.bits_consumed == len(inner.bits)


def test_run_remaining_leaves_trailing_bits_unread():
    inner = encode_text("(' p)")
    out = run("(join (run-remaining) (join (read-bit) ()))", tape=inner.bits + "1")
    assert isinstance(out, Halted)
    assert out.value == ("p", "1")
    assert out.bits_consumed == len(inner.bits) + 1


def test_run_remaining_consumes_exactly_inner_reads():
    inner = encode_text("(read-bit)", "1")
    out = run("(run-remaining)", tape=inner.bits)
    assert isinstance(out, Halted)
    assert out.value == "1"
    assert out.bits_consumed == len(inner.bits)


def test_run_remaining_aborts_on_garbage():
    assert isinstance(run("(run-remaining)", tape="1" * 40), AbortOverrun)
    assert isinstance(run("(run-remaining)", tape=""), AbortOverrun)


def test_run_remaining_aborts_on_an_embedded_program_that_cannot_run():
    # Two forms, the first not a define: the embedded program parses but
    # is malformed as a program, so the nested run aborts.
    inner = encode_text("a (' b)")
    assert isinstance(run("(run-remaining)", tape=inner.bits), AbortOverrun)


def test_equal_compares_values_too_deep_for_equality_without_recursion(monkeypatch):
    def nest(depth, atom):
        value = atom
        for _ in range(depth):
            value = (value,)
        return value

    deep_calls = []
    deep_equal = evaluator._deep_equal

    def counted(a, b):
        deep_calls.append(1)
        return deep_equal(a, b)

    monkeypatch.setattr(evaluator, "_deep_equal", counted)
    assert evaluator._equal(nest(100_000, "a"), nest(100_000, "b")) is False
    assert deep_calls == [1]


def test_determinism():
    text = IN_SET_TEXT + "(in-set? (read-bit) (' (0 1)))"
    outs = {evaluate(parse(text), "1", 100) for _ in range(5)}
    assert len(outs) == 1


def test_budget_monotonic_same_value():
    text = IN_SET_TEXT + "(in-set? (' y) (' (x y z)))"
    program = parse(text)
    base = evaluate(program, "", 29)
    assert isinstance(base, Halted)
    for budget in (30, 58, 1 << 16):
        again = evaluate(program, "", budget)
        assert again == base


def test_tape_extension_preserves_halts():
    program = parse("(join (read-bit) ())")
    short = evaluate(program, "1", 100)
    longer = evaluate(program, "10110", 100)
    assert isinstance(short, Halted) and isinstance(longer, Halted)
    assert short.value == longer.value
    assert short.bits_consumed == longer.bits_consumed == 1


@given(bit_strings, st.integers(min_value=1, max_value=64))
@settings(max_examples=60)
def test_read_bits_consume_prefix_only(tape, budget):
    out = evaluate(parse("(join (read-bit) (join (read-bit) ()))"), tape, budget)
    if isinstance(out, Halted):
        assert out.value == (tape[0], tape[1])
        assert out.bits_consumed == 2
    elif isinstance(out, AbortOverrun):
        assert len(tape) < 2


def test_totality_fuzzed_programs_never_raise():
    import random

    from conftest import random_expr, random_tape

    rng = random.Random(7)
    variants = (Halted, AbortOverrun, OutOfTime, MalformedProgram)
    for _ in range(500):
        program = (random_expr(rng, 3),)
        out = evaluate(program, random_tape(rng), rng.choice((1, 7, 300)))
        assert isinstance(out, variants)


def test_tape_monotonicity_fuzzed():
    # appending unread bits never changes a halted run
    import random

    from conftest import random_expr, random_tape

    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        program = (random_expr(rng, 3),)
        tape = random_tape(rng)
        out = evaluate(program, tape, 512)
        if not isinstance(out, Halted):
            continue
        checked += 1
        extended = evaluate(program, tape + "1" + random_tape(rng), 512)
        assert isinstance(extended, Halted)
        assert extended.value == out.value
        assert extended.bits_consumed == out.bits_consumed
        assert extended.steps == out.steps
        assert extended.emitted == out.emitted
    assert checked > 200


@pytest.mark.parametrize(
    "text, steps",
    [
        ("(define (rev l a) (if (= l ()) a (rev (tail l) (join (head l) a))))"
         " (rev (' %s) ())", 12 * 2000 + 10),
        (IN_SET_TEXT + "(in-set? (' absent) (' %s))", 14 * 2000 + 10),
    ],
)
def test_list_recursion_walks_values_a_bounded_number_of_times(monkeypatch, text, steps):
    # Walking whole values on every step made list recursion quadratic.
    walks = []

    def counted(walk):
        def wrapper(*args):
            walks.append(walk.__name__)
            return walk(*args)

        return wrapper

    for name in ("_materialise", "_deep_equal"):
        monkeypatch.setattr(evaluator, name, counted(getattr(evaluator, name)))
    items = "(" + " ".join("abcde"[i % 5] for i in range(2000)) + ")"
    out = run(text % items, budget=10**6)
    assert isinstance(out, Halted) and out.steps == steps
    assert len(walks) <= 2
    # the counter sees the walk of a displayed list
    run("(display (join (lambda (x) x) ()))")
    assert walks


def test_list_reversal_builds_tuples_of_linear_total_length(monkeypatch):
    # join and tail build no tuple; a reversal of n items builds its
    # result once, not a copy of the list per step (about n*n/2 items).
    built = []
    materialise = evaluator._materialise

    def counted(view):
        items = materialise(view)
        built.append(len(items))
        return items

    monkeypatch.setattr(evaluator, "_materialise", counted)
    n = 2000
    items = tuple("abcde"[i % 5] for i in range(n))
    out = run(
        "(define (rev l a) (if (= l ()) a (rev (tail l) (join (head l) a))))"
        " (rev (' (%s)) ())" % " ".join(items),
        budget=10**6,
    )
    assert isinstance(out, Halted) and out.steps == 12 * n + 10
    assert out.value == items[::-1]
    assert sum(built) <= 2 * n
