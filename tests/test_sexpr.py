"""Reader and canonical printer."""

import itertools
import random

import pytest
from hypothesis import given

import reference_format
from conftest import ATOM_ALPHABET, IN_SET_TEXT, random_sexpr, sexprs
from omegalab.evaluator import Closure, Env
from omegalab.sexpr import (
    QUOTE_ATOM,
    DanglingQuote,
    IllegalCharacter,
    SExprError,
    UnbalancedParens,
    parse,
    parse_one,
    print_canonical,
    print_program,
)


@pytest.mark.parametrize("bad,pos", [("a\x01b", 1), ("é", 0), ("(x \x7f)", 3)])
def test_parse_illegal_character(bad, pos):
    with pytest.raises(IllegalCharacter) as err:
        parse(bad)
    assert err.value.position == pos


def _read(reader, text):
    """The parsed expressions, or the type, position and message of the
    reader error."""
    try:
        return reader(text)
    except SExprError as exc:
        return type(exc), exc.position, str(exc)


def _reader_corpus():
    alphabet = "()' a\t"
    for n in range(7):
        for chars in itertools.product(alphabet, repeat=n):
            yield "".join(chars)
    rng = random.Random(1401)
    # Mostly legal characters, so that most strings get past the alphabet
    # check and exercise the reader itself.
    symbols = "()'ab \t\n\x01é"
    weights = [6, 6, 4, 5, 3, 3, 1, 1, 0.5, 0.5]
    for _ in range(200_000):
        yield "".join(rng.choices(symbols, weights, k=rng.randrange(15)))
    yield IN_SET_TEXT


def test_parse_matches_two_stage_reference():
    """Same expressions, or the same error type, position and message, as
    the tokenize-then-build reference reader."""
    count = 0
    for text in _reader_corpus():
        assert _read(parse, text) == _read(reference_format.parse, text), text
        count += 1
    assert count == 55_987 + 200_000 + 1


def test_parse_matches_reference_on_large_inputs():
    rng = random.Random(1402)
    items = " ".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                     for _ in range(8000))
    reversal = ("(define (rev l a) (if (= l ()) a (rev (tail l) (join (head l) a))))"
                f" (rev (' ({items})) ())")
    assert parse(reversal) == reference_format.parse(reversal)
    deep = "(" * 100_000 + ")" * 100_000
    # == on tuples nested this deep recurses, so compare printed forms.
    (got,) = parse(deep)
    (want,) = reference_format.parse(deep)
    assert print_canonical(got) == print_canonical(want) == deep
    for text in ("(" * 100_000, deep + ")", deep[:-1] + "')"):
        assert _read(parse, text) == _read(reference_format.parse, text)


def test_parse_application():
    assert parse("(f x y)") == (("f", "x", "y"),)


def test_parse_empty_list():
    assert parse("()") == ((),)


def test_parse_unbalanced():
    with pytest.raises(UnbalancedParens):
        parse("(a (b")
    with pytest.raises(UnbalancedParens):
        parse("a)")


def test_parse_quote_operator_position():
    assert parse("(' y)") == (("'", "y"),)
    assert parse("(' (x y z))") == (("'", ("x", "y", "z")),)


def test_parse_quote_sugar():
    assert parse("'x") == (("'", "x"),)
    assert parse("(a 'x)") == ((("a", ("'", "x"))),)
    assert parse("''x") == (("'", ("'", "x")),)


def test_parse_dangling_quote():
    with pytest.raises(DanglingQuote):
        parse("'")
    with pytest.raises(DanglingQuote):
        parse("(a ')")


def test_parse_multiple_top_level():
    assert parse("a (b c) d") == ("a", ("b", "c"), "d")


def test_parse_one_rejects_many():
    with pytest.raises(ValueError):
        parse_one("a b")


def test_print_atom_and_empty_list():
    assert print_canonical(("a", ())) == "(a ())"


def test_print_normalizes_whitespace():
    assert print_canonical(parse("( a   b )")[0]) == "(a b)"


def test_print_rejects_bad_atoms():
    with pytest.raises(ValueError):
        print_canonical("a b")
    with pytest.raises(ValueError):
        print_canonical("")
    with pytest.raises(ValueError):
        print_canonical(("x", "a'b"))


def test_in_set_text_round_trips_to_fixed_point():
    canonical = print_program(parse(IN_SET_TEXT))
    assert parse(canonical) == parse(IN_SET_TEXT)
    assert print_program(parse(canonical)) == canonical


@given(sexprs)
def test_round_trip(x):
    assert parse(print_canonical(x)) == (x,)


@given(sexprs)
def test_canonical_is_parse_print_fixed_point(x):
    text = print_canonical(x)
    assert print_canonical(parse(text)[0]) == text


@pytest.mark.xfail(
    strict=True,
    reason="a quote atom outside operator position prints as a bare quote "
    "mark, which reads back as sugar",
)
@pytest.mark.parametrize("x", [("a", QUOTE_ATOM, "b"), ("x", QUOTE_ATOM)])
def test_quote_atom_outside_operator_position_round_trips(x):
    assert parse(print_canonical(x)) == (x,)


def test_quote_forms_round_trip():
    for text in ["(' y)", "'x", "(a (' b))", "(' (' x))", "(' ())"]:
        canonical = print_program(parse(text))
        assert parse(canonical) == parse(text)


def _printed(printer, x):
    """The printed text, or the type and message of the exception."""
    try:
        return printer(x)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _nested(depth, leaf):
    x = leaf
    for i in range(depth):
        x = (x,) if i % 2 else ("n", x)
    return x


def _print_corpus(rng):
    yield ()
    yield QUOTE_ATOM
    yield (QUOTE_ATOM, "x")
    yield (QUOTE_ATOM, ("a", QUOTE_ATOM, "b"))
    yield ("a", QUOTE_ATOM, "b", QUOTE_ATOM)
    yield ((), "a", ((),))
    for _ in range(300):
        yield random_sexpr(rng, rng.randrange(1, 6))
    for n in (1, 2, 3, 10, 1000, 100_000):
        atoms = [
            "".join(rng.choice(ATOM_ALPHABET) for _ in range(rng.randrange(1, 5)))
            for _ in range(n)
        ]
        for i in rng.sample(range(n), min(n, 3)):
            atoms[i] = QUOTE_ATOM
        yield tuple(atoms)
    yield _nested(200_000, ("x", "y"))
    yield _nested(200_000, ())


def test_print_canonical_matches_per_node_reference():
    rng = random.Random(1106)
    for x in _print_corpus(rng):
        assert print_canonical(x) == reference_format.print_canonical(x)


@given(sexprs)
def test_print_canonical_matches_reference_on_generated_values(x):
    assert print_canonical(x) == reference_format.print_canonical(x)


def test_print_canonical_errors_match_per_node_reference():
    """The first bad node in print order raises, with the same type and
    message, whether it sits in a list of atoms or deeper."""
    closure = Closure(("p",), "p", Env({}, None))
    bad_nodes = ["", "a b", " ", "a(", "(", ")", "a'b", "'x", "x'", "''",
                 "\t", "\u00e9", 7, closure]
    cases = []
    for bad in bad_nodes:
        cases += [
            bad,
            (bad,),
            ("a", bad),
            (bad, "b", "c"),
            ("a", ("b", bad), "c"),
            (("a", bad), bad),
            (QUOTE_ATOM, bad),
            ("a", "", bad),
            ("a", bad, 7),
            ("a", 7, bad),
            _nested(1000, ("x", bad)),
        ]
    failures = set()
    for x in cases:
        expected = _printed(reference_format.print_canonical, x)
        assert _printed(print_canonical, x) == expected, x
        if type(expected) is tuple:
            failures.add(expected[0])
    assert failures == {TypeError, ValueError}


def test_print_canonical_of_an_atom_matches_the_walk():
    """Every string of at most two characters of one byte each, the quote
    atom and values of other types: the same text, or the same exception
    type and message, as the node-by-node walk."""
    chars = [chr(c) for c in range(256)]
    cases = [""] + chars + ["".join(pair) for pair in itertools.product(chars, repeat=2)]
    cases += [QUOTE_ATOM, "a" * 1000, 7, None, b"a", ["a"], type("Name", (str,), {})("a")]
    printed = set()
    for x in cases:
        expected = _printed(reference_format.print_canonical, x)
        assert _printed(print_canonical, x) == expected, repr(x)
        printed.add(type(expected))
    assert printed == {str, tuple}
