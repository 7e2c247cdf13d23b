"""Shared strategies and helper programs for the test suite."""

import pytest
from hypothesis import strategies as st

from omegalab.sexpr import ATOM_CHARS

# Paper-style set membership, used across modules as a known-good program.
IN_SET_TEXT = """
(define (in-set? member set)
   (if (= () set) false
   (if (= member (head set)) true
       (in-set? member (tail set))
   ))
)
"""

# Self-application loop: never halts at any budget.
DIVERGER_TEXT = "((lambda (f) (f f)) (lambda (f) (f f)))"

ATOM_ALPHABET = "".join(sorted(ATOM_CHARS))

atoms = st.text(alphabet=ATOM_ALPHABET, min_size=1, max_size=6)

sexprs = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=5).map(tuple),
    max_leaves=40,
)

bit_strings = st.text(alphabet="01", max_size=48)

# Deterministic (seeded-rng) fuzzers, shared by the property tests and the
# acceptance suite.

ATOM_POOL = ["a", "b", "x", "y", "z", "0", "1", "3", "zig", "q7", "true", "false"]


def random_sexpr(rng, depth=3):
    if depth == 0 or rng.random() < 0.55:
        return rng.choice(ATOM_POOL)
    return tuple(random_sexpr(rng, depth - 1) for _ in range(rng.randrange(0, 4)))


def random_expr(rng, depth=3):
    """Expression grammar biased toward halting programs."""
    if depth == 0:
        return rng.choice(
            [("'", random_sexpr(rng, 1)), rng.choice(ATOM_POOL), ("read-bit",)]
        )
    roll = rng.randrange(10)
    if roll == 0:
        return ("'", random_sexpr(rng, 2))
    if roll == 1:
        return ("join", random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll == 2:
        return (rng.choice(["head", "tail"]), random_expr(rng, depth - 1))
    if roll == 3:
        return ("=", random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll == 4:
        return (
            "if",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
        )
    if roll == 5:
        return ("read-bit",)
    if roll == 6:
        return ("atom?", random_expr(rng, depth - 1))
    if roll == 7:
        return ("display", random_expr(rng, depth - 1))
    if roll == 8:
        param = rng.choice(["p", "q"])
        return (
            ("lambda", (param,), random_expr(rng, depth - 1)),
            random_expr(rng, depth - 1),
        )
    return rng.choice(ATOM_POOL)


def random_tape(rng):
    return "".join(rng.choice("01") for _ in range(rng.randrange(0, 13)))


@pytest.fixture
def desk_census():
    """A fully decided census over the 24-bit corpus, built for each test:
    reading ``records`` turns a census into held records, so one shared
    census would change its form under every later test."""
    from omegalab.dovetail import advance, new_census

    return advance(new_census(24), 10)
